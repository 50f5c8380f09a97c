package vcm

import (
	"testing"

	"feves/internal/device"
	"feves/internal/sched"
)

// TestScheduleBuildZeroAllocs asserts the tentpole's steady-state
// contract at the VCM layer: once the simulator, label tables and span
// buffers are sized by the first frames, a full timing-only inter-frame
// — LP balance, simulated-clock schedule build, model observation, span
// export — allocates nothing.
func TestScheduleBuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	w := wl1080p(32, 1)
	pl := device.SysNFF()
	topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
	pm := sched.NewPerfModel(topo.NumDevices(), 0.8)
	m := &Manager{Platform: pl, Mode: TimingOnly}
	balancer := &sched.LPBalancer{}
	prevSigmaR := make([]int, topo.NumDevices())
	frame := 0
	step := func() {
		frame++
		var d sched.Distribution
		var err error
		if !pm.Ready() {
			d = sched.Equidistant(topo.NumDevices(), w.Rows(), 0)
		} else {
			d, err = balancer.Distribute(pm, topo, w, prevSigmaR)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.EncodeFrames(pm, FrameInput{Frame: frame, W: w, D: d, PrevSigmaR: prevSigmaR}); err != nil {
			t.Fatal(err)
		}
		prevSigmaR = append(prevSigmaR[:0], d.SigmaR...)
	}
	// First frame characterizes the model (equidistant path allocates its
	// distribution). The manager and balancer scratch sizes in the first
	// few frames, but the EWMA model keeps shifting the distribution — and
	// with it the per-frame task shapes (σ/σʳ oscillation included) — for
	// a few dozen frames; every new shape can grow a retained buffer once.
	// Steady state is reached when the model converges, ~40 frames in.
	for i := 0; i < 40; i++ {
		step()
	}
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("steady-state inter-frame allocates %v per call, want 0", n)
	}
}

// TestManagerReuseAcrossPlatforms pins ensureSim's rebuild key: switching
// the Manager to a different platform rebuilds the simulator rather than
// replaying the stale one, and switching back still works.
func TestManagerReuseAcrossPlatforms(t *testing.T) {
	w := wl1080p(32, 1)
	run := func(m *Manager, pl *device.Platform) FrameTiming {
		m.Platform = pl
		topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
		pm := sched.NewPerfModel(topo.NumDevices(), 0.8)
		d := sched.Equidistant(topo.NumDevices(), w.Rows(), 0)
		fts, err := m.EncodeFrames(pm, FrameInput{Frame: 1, W: w, D: d})
		if err != nil {
			t.Fatal(err)
		}
		return fts[0]
	}
	shared := &Manager{Mode: TimingOnly}
	hk := run(shared, device.SysHK())
	nff := run(shared, device.SysNFF())
	hk2 := run(shared, device.SysHK())

	if fresh := run(&Manager{Mode: TimingOnly}, device.SysNFF()); nff.Tot != fresh.Tot {
		t.Fatalf("reused manager on SysNFF: τtot %v, fresh manager %v", nff.Tot, fresh.Tot)
	}
	if hk.Tot != hk2.Tot {
		t.Fatalf("SysHK before/after platform switch: τtot %v vs %v", hk.Tot, hk2.Tot)
	}
}

// BenchmarkScheduleBuild measures the steady-state cost of one
// timing-only inter-frame: LP balancing plus the simulated-clock
// schedule build. This is the per-frame scheduling overhead the paper's
// framework adds on top of the encoder kernels.
func BenchmarkScheduleBuild(b *testing.B) {
	w := wl1080p(32, 1)
	pl := device.SysNFF()
	topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
	pm := sched.NewPerfModel(topo.NumDevices(), 0.8)
	m := &Manager{Platform: pl, Mode: TimingOnly}
	balancer := &sched.LPBalancer{}
	prevSigmaR := make([]int, topo.NumDevices())
	frame := 0
	step := func() error {
		frame++
		var d sched.Distribution
		var err error
		if !pm.Ready() {
			d = sched.Equidistant(topo.NumDevices(), w.Rows(), 0)
		} else {
			d, err = balancer.Distribute(pm, topo, w, prevSigmaR)
			if err != nil {
				return err
			}
		}
		if _, err := m.EncodeFrames(pm, FrameInput{Frame: frame, W: w, D: d, PrevSigmaR: prevSigmaR}); err != nil {
			return err
		}
		prevSigmaR = append(prevSigmaR[:0], d.SigmaR...)
		return nil
	}
	for i := 0; i < 3; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}
