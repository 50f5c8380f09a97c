package device

import (
	"math"
	"strings"
	"testing"
)

func TestParseFaultsGrammar(t *testing.T) {
	pl := SysNF() // 1 GPU + 4 cores
	cases := []struct {
		spec string
		want func(t *testing.T, fp *FaultPlan)
	}{
		{"die:0@40", func(t *testing.T, fp *FaultPlan) {
			f := fp.Faults[0]
			if f.Kind != FaultDie || f.Device != 0 || f.Frame != 40 {
				t.Fatalf("got %+v", f)
			}
		}},
		{"stall:2@10+5", func(t *testing.T, fp *FaultPlan) {
			f := fp.Faults[0]
			if f.Kind != FaultStall || f.Device != 2 || f.Frame != 10 || f.Frames != 5 {
				t.Fatalf("got %+v", f)
			}
		}},
		{"slow:1@7x2.5", func(t *testing.T, fp *FaultPlan) {
			f := fp.Faults[0]
			if f.Kind != FaultSlow || f.Device != 1 || f.Frame != 7 || f.Factor != 2.5 || f.Frames != 0 {
				t.Fatalf("got %+v", f)
			}
		}},
		{"slow:GPU_F@3x4+2; die:4@9", func(t *testing.T, fp *FaultPlan) {
			if len(fp.Faults) != 2 {
				t.Fatalf("want 2 faults, got %+v", fp.Faults)
			}
			if fp.Faults[0].Device != 0 { // GPU_F resolves by name to index 0
				t.Fatalf("name resolution got %+v", fp.Faults[0])
			}
			if fp.Faults[1].Kind != FaultDie || fp.Faults[1].Device != 4 {
				t.Fatalf("got %+v", fp.Faults[1])
			}
		}},
		{"chaos:99x0.25", func(t *testing.T, fp *FaultPlan) {
			if fp.ChaosSeed != 99 || fp.ChaosRate != 0.25 {
				t.Fatalf("got seed=%d rate=%g", fp.ChaosSeed, fp.ChaosRate)
			}
		}},
	}
	for _, c := range cases {
		fp, err := ParseFaults(c.spec, pl)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", c.spec, err)
		}
		c.want(t, fp)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	pl := SysNF()
	bad := []string{
		"",             // no clauses
		"die:0",        // missing @frame
		"die:0@40+3",   // die with duration
		"die:9@4",      // index out of range
		"die:nosuch@4", // unknown name
		"slow:0@4",     // missing factor
		"slow:0@4x0.5", // factor <= 1
		"stall:0@0",    // frame < 1
		"stall:0@5+0",  // non-positive duration
		"chaos:1x1.5",  // rate out of range
		"frob:0@4",     // unknown kind
	}
	for _, spec := range bad {
		if _, err := ParseFaults(spec, pl); err == nil {
			t.Errorf("ParseFaults(%q) = nil error, want failure", spec)
		}
	}
	// Name resolution without a platform must fail; indices still work.
	if _, err := ParseFaults("die:GPU_F@4", nil); err == nil || !strings.Contains(err.Error(), "platform") {
		t.Errorf("nameless resolve: %v", err)
	}
	if _, err := ParseFaults("die:3@4", nil); err != nil {
		t.Errorf("index without platform: %v", err)
	}
}

// TestParseFaultsRejectsNonFinite: strconv.ParseFloat reads "Inf" and
// "NaN", and NaN slips past ordered comparisons. An infinite slowdown made
// every later simulated frame report +Inf seconds; a NaN factor or chaos
// rate was accepted silently. Each must fail, naming its clause.
func TestParseFaultsRejectsNonFinite(t *testing.T) {
	pl := SysHK()
	for _, c := range []struct{ spec, clause string }{
		{"die:1@9; slow:0@2xInf", "slow:0@2xInf"},
		{"slow:0@2xNaN", "slow:0@2xNaN"},
		{"chaos:1xNaN", "chaos:1xNaN"},
	} {
		_, err := ParseFaults(c.spec, pl)
		if err == nil {
			t.Errorf("ParseFaults(%q) = nil error, want failure", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.clause) {
			t.Errorf("ParseFaults(%q) error %q does not name clause %q", c.spec, err, c.clause)
		}
	}
}

// FuzzParseFaults: whatever the spec, ParseFaults returns an error or a
// plan the fault machinery can run — every fault on a device of the
// platform from frame 1 on, every slowdown a finite factor above 1, and a
// chaos rate that is a probability. It never panics.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"die:1@40; slow:0@10x3+5",
		"die:0@40", "stall:2@10+5", "slow:1@7x2.5",
		"slow:GPU_F@3x4+2; die:4@9", "chaos:99x0.25",
		"slow:0@2xInf", "slow:0@2xNaN", "chaos:1xNaN",
	} {
		f.Add(seed)
	}
	pl := SysNF()
	f.Fuzz(func(t *testing.T, spec string) {
		fp, err := ParseFaults(spec, pl)
		if err != nil {
			return
		}
		for _, flt := range fp.Faults {
			if flt.Frame < 1 || flt.Frames < 0 {
				t.Fatalf("%q: fault %+v starts before frame 1 or lasts a negative count", spec, flt)
			}
			if flt.Device < 0 || flt.Device >= pl.NumDevices() {
				t.Fatalf("%q: fault %+v outside the platform's %d devices", spec, flt, pl.NumDevices())
			}
			if flt.Kind == FaultSlow && !(flt.Factor > 1 && !math.IsInf(flt.Factor, 1)) {
				t.Fatalf("%q: slow factor %v, want finite > 1", spec, flt.Factor)
			}
		}
		if !(fp.ChaosRate >= 0 && fp.ChaosRate <= 1) {
			t.Fatalf("%q: chaos rate %v outside [0,1]", spec, fp.ChaosRate)
		}
	})
}

func TestFaultPlanFactorWindows(t *testing.T) {
	fp := &FaultPlan{Faults: []Fault{
		{Device: 1, Kind: FaultSlow, Frame: 10, Frames: 3, Factor: 2},
		{Device: 1, Kind: FaultStall, Frame: 20, Frames: 1},
		{Device: 2, Kind: FaultDie, Frame: 5},
	}}
	if got := fp.Factor(9, 1); got != 1 {
		t.Errorf("before slow window: %g", got)
	}
	for f := 10; f < 13; f++ {
		if got := fp.Factor(f, 1); got != 2 {
			t.Errorf("frame %d: factor %g, want 2", f, got)
		}
	}
	if got := fp.Factor(13, 1); got != 1 {
		t.Errorf("after slow window: %g", got)
	}
	if got := fp.Factor(20, 1); got != StallFactor {
		t.Errorf("stall: %g", got)
	}
	if got := fp.Factor(21, 1); got != 1 {
		t.Errorf("after stall: %g", got)
	}
	// Die is permanent and marks the device dead.
	for _, f := range []int{5, 500} {
		if got := fp.Factor(f, 2); got != StallFactor {
			t.Errorf("die frame %d: %g", f, got)
		}
		if !fp.Dead(f, 2) {
			t.Errorf("Dead(%d, 2) = false", f)
		}
	}
	if fp.Dead(4, 2) || fp.Dead(10, 0) {
		t.Error("Dead true outside fault window")
	}
	// Unaffected device and nil plan are identity.
	if fp.Factor(10, 0) != 1 || (*FaultPlan)(nil).Factor(10, 0) != 1 || (*FaultPlan)(nil).Dead(1, 0) {
		t.Error("identity cases broken")
	}
}

func TestFaultPlanChaosDeterministic(t *testing.T) {
	fp := &FaultPlan{ChaosSeed: 7, ChaosRate: 0.3}
	hits := 0
	const frames, devs = 200, 5
	for frame := 1; frame <= frames; frame++ {
		for dev := 0; dev < devs; dev++ {
			a := fp.Factor(frame, dev)
			b := fp.Factor(frame, dev)
			if a != b {
				t.Fatalf("chaos not deterministic at (%d,%d): %g vs %g", frame, dev, a, b)
			}
			if a != 1 {
				hits++
				if a < 4 || a > 16 {
					t.Fatalf("chaos factor %g outside [4,16]", a)
				}
			}
		}
	}
	rate := float64(hits) / float64(frames*devs)
	if math.Abs(rate-0.3) > 0.06 {
		t.Errorf("chaos hit rate %g far from 0.3", rate)
	}
	// A different seed must produce a different pattern somewhere.
	other := &FaultPlan{ChaosSeed: 8, ChaosRate: 0.3}
	same := true
	for frame := 1; frame <= 50 && same; frame++ {
		for dev := 0; dev < devs; dev++ {
			if fp.Factor(frame, dev) != other.Factor(frame, dev) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different chaos seeds produced identical schedules")
	}
}

func TestEffectiveFactorAppliesFaults(t *testing.T) {
	pl := SysNF()
	base := pl.EffectiveFactor(12, 0, 0)
	pl.Faults = &FaultPlan{Faults: []Fault{{Device: 0, Kind: FaultSlow, Frame: 12, Frames: 1, Factor: 3}}}
	if got := pl.EffectiveFactor(12, 0, 0); math.Abs(got-3*base) > 1e-12 {
		t.Errorf("faulted factor %g, want %g", got, 3*base)
	}
	if got := pl.EffectiveFactor(13, 0, 0); got == 3*pl.EffectiveFactor(13, 0, 0)/1 && false {
		_ = got
	}
	// Subplatforms inherit the plan and evaluate it under parent indices.
	sub, err := pl.Subplatform("lease", []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.EffectiveFactor(12, 0, 0); math.Abs(got-3*base) > 1e-12 {
		t.Errorf("subplatform faulted factor %g, want %g", got, 3*base)
	}
	// Core 3 is sub device 1; it is unaffected.
	if got, want := sub.EffectiveFactor(12, 1, 0), pl.EffectiveFactor(12, 3, 0); got != want {
		t.Errorf("subplatform core factor %g, want %g", got, want)
	}
}
