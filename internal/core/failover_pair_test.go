package core

import (
	"testing"

	"feves/internal/device"
	"feves/internal/sched"
	"feves/internal/vcm"
)

// TestPairFailoverExcludesStalledDevice drives the frame-parallel loop
// into the failover machinery: a device that stalls mid-run must blow the
// pair's task budget, be blamed, escalate healthy → degraded → excluded
// across the bounded bit-exact retries, and drop out of every later joint
// schedule — with the introspection surface (Health, HealthStates,
// FrameRetries) reporting each step.
func TestPairFailoverExcludesStalledDevice(t *testing.T) {
	const stallFrom = 11
	pl := device.SysNFF()
	pl.Perturb = func(frame, dev int) float64 {
		if dev == 0 && frame >= stallFrom {
			return 1e9
		}
		return 1
	}
	opts := timingOpts(pl, 32, 1)
	opts.Codec.Chains = 2
	opts.Codec.IntraPeriod = 9 // forces pairs to break and re-form at IDRs
	opts.FrameParallel = true
	opts.DeadlineSlack = 3
	var excluded []int
	opts.OnDeviceExcluded = func(dev int) { excluded = append(excluded, dev) }
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}

	if fw.Health() == nil {
		t.Fatal("failover armed but no health tracker")
	}
	if got := fw.HealthStates(); len(got) != pl.NumDevices() || got[0] != "healthy" {
		t.Fatalf("initial health states %v", got)
	}

	retried := false
	for fw.FramesProcessed() < 26 {
		ra, rb, paired, err := fw.EncodePair(nil, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", ra.FrameIndex, err)
		}
		if ra.Attempt > 0 || (paired && rb.Attempt > 0) {
			retried = true
		}
		if paired && ra.FrameIndex >= stallFrom+2 {
			// Once excluded, the stalled device must get no rows on either
			// frame of the pair.
			for _, r := range []Result{ra, rb} {
				if r.Distribution.M[0] != 0 || r.Distribution.L[0] != 0 || r.Distribution.S[0] != 0 {
					t.Fatalf("frame %d still assigns rows to the stalled device: %+v", r.FrameIndex, r.Distribution)
				}
			}
		}
	}
	if !retried {
		t.Fatal("the stall never forced a pair retry")
	}
	if fw.FrameRetries() == 0 {
		t.Fatal("FrameRetries reports no failover re-runs")
	}
	if got := fw.HealthStates(); got[0] != "excluded" {
		t.Fatalf("stalled device state %q, want excluded (states %v)", got[0], got)
	}
	if fw.Health().State(0) != sched.Excluded {
		t.Fatal("health tracker does not report the device excluded")
	}
	if len(excluded) != 1 || excluded[0] != 0 {
		t.Fatalf("OnDeviceExcluded fired for %v, want exactly device 0", excluded)
	}
}

// TestPairDeadlineDerivation pins the budget arithmetic of the two
// deadline shapes: a frame alone in its window arms all three sync points
// from the LP's predicted timeline, while a frame with a partner arms only
// the pair-wide total (the per-point predictions assume a solo schedule)
// plus the stall net — and neither arms anything while failover is off.
func TestPairDeadlineDerivation(t *testing.T) {
	opts := timingOpts(device.SysNFF(), 32, 1)
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pred := sched.Distribution{PredTau1: 1, PredTau2: 2, PredTot: 3}
	if fw.deadline(pred, nil) != (vcm.Deadline{}) || fw.deadline(pred, &pred) != (vcm.Deadline{}) {
		t.Fatal("deadlines armed with zero slack")
	}

	opts.DeadlineSlack = 2
	fw, err = New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dl := fw.deadline(pred, nil)
	if dl.Tau1 != 2 || dl.Tau2 != 4 || dl.Tot != 6 || dl.TaskBudget <= 0 {
		t.Fatalf("serial deadline %+v, want per-point budgets at 2x slack", dl)
	}
	// No prediction (equidistant initialization): only the stall net.
	dl = fw.deadline(sched.Distribution{}, nil)
	if dl.Tau1 != 0 || dl.Tau2 != 0 || dl.Tot != 0 || dl.TaskBudget <= 0 {
		t.Fatalf("prediction-free deadline %+v, want stall net only", dl)
	}
	other := sched.Distribution{PredTot: 5}
	pd := fw.deadline(pred, &other)
	if pd.Tau1 != 0 || pd.Tau2 != 0 {
		t.Fatalf("pair deadline arms per-point budgets: %+v", pd)
	}
	if pd.Tot != (3+5)*2 {
		t.Fatalf("pair total budget %v, want the serial upper bound x slack = 16", pd.Tot)
	}
	if pd := fw.deadline(pred, &sched.Distribution{}); pd.Tot != 0 || pd.TaskBudget <= 0 {
		t.Fatalf("pair deadline without both predictions %+v, want stall net only", pd)
	}
}
