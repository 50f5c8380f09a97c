package session

import (
	"errors"
	"io"
	"strings"
	"testing"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264/codec"
	"feves/internal/platforms"
	"feves/internal/pool"
	"feves/internal/vcm"
)

func timingOpts(pairs bool) core.Options {
	cc := codec.Config{Width: 1920, Height: 1088, SearchRange: 32, NumRF: 1, IQP: 27, PQP: 28, Chains: 1}
	if pairs {
		cc.Chains = 2
	}
	return core.Options{Codec: cc, Mode: vcm.TimingOnly, FrameParallel: pairs}
}

func sysnfk(t *testing.T, faults string) *device.Platform {
	t.Helper()
	pl, err := platforms.Lookup("sysnfk")
	if err != nil {
		t.Fatal(err)
	}
	if faults != "" {
		if pl.Faults, err = device.ParseFaults(faults, pl); err != nil {
			t.Fatal(err)
		}
	}
	return pl
}

// frames yields n timing-only frames, then io.EOF.
func frames(n int) func() ([]byte, error) {
	return func() ([]byte, error) {
		if n == 0 {
			return nil, io.EOF
		}
		n--
		return nil, nil
	}
}

func TestPaperDefaults(t *testing.T) {
	sa, rf, iqp, pqp := 0, 0, 0, 30
	PaperDefaults(&sa, &rf, &iqp, &pqp)
	if sa != 32 || rf != 1 || iqp != 27 || pqp != 30 {
		t.Fatalf("defaults {%d %d %d %d}, want {32 1 27 30}", sa, rf, iqp, pqp)
	}
}

// TestRunAndStepAgree drives the same timing-only session by Run and by
// Step, serial and frame-parallel, over an odd frame count: both must
// report every frame once, in order, with identical timings — and Run must
// not step past the last frame to fill a pair.
func TestRunAndStepAgree(t *testing.T) {
	for _, fp := range []bool{false, true} {
		opts := timingOpts(fp)
		opts.Platform = sysnfk(t, "")
		byRun, err := New(opts, nil, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		var ran []core.Result
		if err := byRun.Run(frames(15), func(r core.Result) { ran = append(ran, r) }); err != nil {
			t.Fatal(err)
		}
		if len(ran) != 15 || byRun.Framework().FramesProcessed() != 15 {
			t.Fatalf("fp=%v: Run emitted %d results and consumed %d frames, want 15 and 15",
				fp, len(ran), byRun.Framework().FramesProcessed())
		}
		opts.Platform = sysnfk(t, "")
		byStep, err := New(opts, nil, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		paired := false
		for i, want := range ran[:14] { // the 15th Run frame has no partner; Step would pair it
			got, err := byStep.Step()
			if err != nil {
				t.Fatal(err)
			}
			if got.FrameIndex != i || got.Timing.Tot != want.Timing.Tot || got.FPS() != want.FPS() {
				t.Fatalf("fp=%v frame %d: Step {%d %v}, Run {%d %v}", fp, i,
					got.FrameIndex, got.Timing.Tot, want.FrameIndex, want.Timing.Tot)
			}
			paired = paired || got.Timing.PairMakespan > 0
		}
		if paired != fp {
			t.Fatalf("fp=%v: paired frames seen = %v", fp, paired)
		}
	}
}

// TestLeaseFollowedAndFailedOver runs two tenants of one pool with a GPU
// that dies under an armed deadline: the tenant holding it hands it to the
// pool, both pick up the shrunk partition at their next window, no frame
// is dropped, and the hooks count what happened.
func TestLeaseFollowedAndFailedOver(t *testing.T) {
	p, err := pool.New(sysnfk(t, "die:GPU_F@6"))
	if err != nil {
		t.Fatal(err)
	}
	var lost, moved int
	hooks := Hooks{DeviceLost: func() { lost++ }, Repartitioned: func() { moved++ }}
	opts := timingOpts(false)
	opts.Codec.SearchRange = 32 // SA 64 keeps the dying GPU loaded
	opts.DeadlineSlack = 3
	var tenants []*Driver
	for i := 0; i < 2; i++ {
		lease, err := p.Acquire(core.Workload(opts.Codec))
		if err != nil {
			t.Fatal(err)
		}
		defer lease.Release()
		d, err := New(opts, lease, hooks)
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, d)
	}
	for i := 0; i < 12; i++ {
		for ti, d := range tenants {
			r, err := d.Step()
			if err != nil {
				t.Fatalf("tenant %d frame %d: %v", ti, i, err)
			}
			if r.FrameIndex != i {
				t.Fatalf("tenant %d reported frame %d at step %d", ti, r.FrameIndex, i)
			}
		}
	}
	if lost != 1 || p.UpDevices() != 5 {
		t.Fatalf("devices lost %d, pool up %d; want 1 and 5", lost, p.UpDevices())
	}
	for ti, d := range tenants {
		if strings.Contains(strings.Join(d.Devices(), " "), "GPU_F") {
			t.Errorf("tenant %d still runs on the dead GPU: %v", ti, d.Devices())
		}
		if d.Repartitions() == 0 {
			t.Errorf("tenant %d never picked up the shrunk partition", ti)
		}
	}
	if moved < 2 {
		t.Errorf("Repartitioned hook ran %d times, want once per tenant at least", moved)
	}
}

// TestOrphanedLeaseAndMisuse loses one of two devices under two tenants:
// the newer tenant's lease is left without devices, which both a running
// and a starting session must report as an error; so must calls of the
// wrong mode, a failing source, and anything after Close.
func TestOrphanedLeaseAndMisuse(t *testing.T) {
	p, err := pool.New(&device.Platform{Name: "2gpu", Seed: 1,
		GPUs: []device.Profile{device.GPUKepler(), device.GPUFermi()}})
	if err != nil {
		t.Fatal(err)
	}
	opts := timingOpts(false)
	var leases [2]*pool.Lease
	var tenants [2]*Driver
	for i := range tenants {
		if leases[i], err = p.Acquire(core.Workload(opts.Codec)); err != nil {
			t.Fatal(err)
		}
		if tenants[i], err = New(opts, leases[i], Hooks{}); err != nil {
			t.Fatal(err)
		}
	}
	if !p.MarkDown(0) {
		t.Fatal("pool kept the lost device")
	}
	if _, err := tenants[0].Step(); err != nil {
		t.Errorf("the older tenant lost service: %v", err)
	}
	if _, err := tenants[1].Step(); err == nil || !strings.Contains(err.Error(), "orphaned") {
		t.Errorf("the orphaned tenant stepped: %v", err)
	}
	if _, err := New(opts, leases[1], Hooks{}); err == nil || !strings.Contains(err.Error(), "orphaned") {
		t.Errorf("a session started on an orphaned lease: %v", err)
	}

	d := tenants[0]
	if _, err := d.Encode(nil, nil); err == nil {
		t.Error("Encode accepted on a timing-only session")
	}
	boom := errors.New("source failed")
	if err := d.Run(func() ([]byte, error) { return nil, boom }, func(core.Result) {}); err != boom {
		t.Errorf("Run returned %v, want the source's error", err)
	}
	d.Close()
	if _, err := d.Step(); err == nil {
		t.Error("Step accepted on a closed session")
	}
	if err := d.Run(frames(1), func(core.Result) {}); err == nil {
		t.Error("Run accepted on a closed session")
	}
}
