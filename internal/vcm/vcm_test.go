package vcm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/sched"
	"feves/internal/telemetry"
	"feves/internal/video"
)

func wl1080p(sa, rf int) device.Workload {
	return device.Workload{MBW: 120, MBH: 68, SA: sa, NumRF: rf, UsableRF: rf}
}

// driver runs the Algorithm 1 loop against a Manager the way the core
// layer does: per window, each slot gets its own distribution (equidistant
// until the model is characterized, LP-balanced afterwards) and its own σʳ
// carry. Frames are numbered 1, 2, … in display order and slot c predicts
// from chain c — chain = (idx − lastIntra − 1) mod window for an intra
// frame at index 0.
type driver struct {
	m     *Manager
	topo  sched.Topology
	pm    *sched.PerfModel
	bal   sched.LPBalancer
	prev  [maxWindow][]int
	frame int // next display index
}

func newDriver(m *Manager) *driver {
	pl := m.Platform
	dr := &driver{m: m, topo: sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}, frame: 1}
	dr.pm = sched.NewPerfModel(dr.topo.NumDevices(), 0.8)
	for c := range dr.prev {
		dr.prev[c] = make([]int, dr.topo.NumDevices())
	}
	return dr
}

// step encodes the next win frames as one window; input supplies each
// frame's workload and, in functional mode, its pixels.
func (dr *driver) step(t *testing.T, win int, input func(frame, chain int) (device.Workload, *h264.Frame)) ([]FrameTiming, error) {
	t.Helper()
	ins := make([]FrameInput, win)
	for c := range ins {
		w, cf := input(dr.frame+c, c)
		d := sched.Equidistant(dr.topo.NumDevices(), w.Rows(), 0)
		if dr.pm.Ready() {
			var err error
			if d, err = dr.bal.Distribute(dr.pm, dr.topo, w, dr.prev[c]); err != nil {
				t.Fatalf("frame %d: %v", dr.frame+c, err)
			}
		}
		ins[c] = FrameInput{Frame: dr.frame + c, Chain: c, W: w, D: d, PrevSigmaR: dr.prev[c], CF: cf}
	}
	fts, err := dr.m.EncodeFrames(dr.pm, ins...)
	if err != nil {
		return fts, err
	}
	for c := range ins {
		dr.prev[c] = append(dr.prev[c][:0], ins[c].D.SigmaR...)
	}
	dr.frame += win
	return fts, nil
}

// runWindows simulates n windows of win frames in timing-only mode and
// returns each window's timings.
func runWindows(t *testing.T, m *Manager, w device.Workload, n, win int) [][]FrameTiming {
	t.Helper()
	dr := newDriver(m)
	var out [][]FrameTiming
	for r := 0; r < n; r++ {
		fts, err := dr.step(t, win, func(int, int) (device.Workload, *h264.Frame) { return w, nil })
		if err != nil {
			t.Fatalf("window %d: %v", r, err)
		}
		out = append(out, append([]FrameTiming(nil), fts...))
	}
	return out
}

// runFrames simulates n serial inter-frames (windows of one).
func runFrames(t *testing.T, pl *device.Platform, w device.Workload, n int) []FrameTiming {
	t.Helper()
	var out []FrameTiming
	for _, fts := range runWindows(t, &Manager{Platform: pl, Mode: TimingOnly}, w, n, 1) {
		out = append(out, fts[0])
	}
	return out
}

func TestTimingOnlySysHK(t *testing.T) {
	fts := runFrames(t, device.SysHK(), wl1080p(32, 1), 6)
	for i, ft := range fts {
		if !(ft.Tau1 > 0 && ft.Tau1 <= ft.Tau2 && ft.Tau2 <= ft.Tot) {
			t.Fatalf("frame %d: τ1=%v τ2=%v τtot=%v out of order", i+1, ft.Tau1, ft.Tau2, ft.Tot)
		}
		if ft.PairMakespan != 0 {
			t.Fatalf("frame %d: a window of one reports pair makespan %v", i+1, ft.PairMakespan)
		}
	}
	// The LP-balanced frames must beat the equidistant first frame — the
	// headline behaviour of Fig. 7.
	if fts[3].Tot >= fts[0].Tot {
		t.Fatalf("balanced frame (%.1f ms) not faster than equidistant frame (%.1f ms)",
			fts[3].Tot*1e3, fts[0].Tot*1e3)
	}
}

// TestPairTimingOnlySchedules exercises the joint two-frame schedule in
// timing-only mode with the invariant checker and telemetry armed: every
// pair must satisfy the per-frame sync-point ordering, share one
// makespan that covers both frames, and feed the performance model.
func TestPairTimingOnlySchedules(t *testing.T) {
	m := &Manager{Platform: device.SysHK(), Mode: TimingOnly,
		Check: true, Telemetry: telemetry.New(nil)}
	pairs := runWindows(t, m, wl1080p(32, 1), 8, 2)
	for p, pr := range pairs {
		ftA, ftB := pr[0], pr[1]
		for _, ft := range pr {
			if !(ft.Tau1 > 0 && ft.Tau1 <= ft.Tau2 && ft.Tau2 <= ft.Tot) {
				t.Fatalf("pair %d frame %d: τ1=%v τ2=%v τtot=%v out of order", p, ft.Frame, ft.Tau1, ft.Tau2, ft.Tot)
			}
			if ft.PairMakespan < ft.Tot {
				t.Fatalf("pair %d frame %d: makespan %v below τtot %v", p, ft.Frame, ft.PairMakespan, ft.Tot)
			}
			if len(ft.Spans) == 0 {
				t.Fatalf("pair %d frame %d: no spans recorded", p, ft.Frame)
			}
			if ft.ModuleTime[sched.ModME] <= 0 || ft.ModuleTime[sched.ModRStar] <= 0 {
				t.Fatalf("pair %d frame %d: module times missing: %v", p, ft.Frame, ft.ModuleTime)
			}
		}
		if ftA.PairMakespan != ftB.PairMakespan {
			t.Fatalf("pair %d: frames report different makespans %v vs %v", p, ftA.PairMakespan, ftB.PairMakespan)
		}
		if ftA.Chain != 0 || ftB.Chain != 1 {
			t.Fatalf("pair %d: chains %d/%d, want 0/1", p, ftA.Chain, ftB.Chain)
		}
	}
	// The joint schedule interleaves but never reorders a frame's own
	// dependency structure, so the pair can't be slower than its slowest
	// member by more than the partner's full span.
	last := pairs[len(pairs)-1]
	if last[0].PairMakespan > last[0].Tot+last[1].Tot {
		t.Fatalf("joint makespan %v exceeds back-to-back bound %v", last[0].PairMakespan, last[0].Tot+last[1].Tot)
	}
}

func TestCollaborationBeatsSingleDevice(t *testing.T) {
	w := wl1080p(32, 1)
	sysFts := runFrames(t, device.SysHK(), w, 8)
	gpuFts := runFrames(t, device.GPUOnly("GPU_K", device.GPUKepler()), w, 8)
	cpuFts := runFrames(t, device.CPUOnly("CPU_H", device.CPUHaswellCore(), 4), w, 8)
	sys, gpu, cpu := sysFts[7].Tot, gpuFts[7].Tot, cpuFts[7].Tot
	if sys >= gpu {
		t.Fatalf("SysHK (%.1f ms) must beat GPU_K alone (%.1f ms)", sys*1e3, gpu*1e3)
	}
	if sys >= cpu {
		t.Fatalf("SysHK (%.1f ms) must beat CPU_H alone (%.1f ms)", sys*1e3, cpu*1e3)
	}
	// Paper: SysHK ≈ 1.3× GPU_K and ≈ 3× CPU_H at SA 32.
	if sp := gpu / sys; sp < 1.1 || sp > 1.7 {
		t.Errorf("SysHK speedup vs GPU_K = %.2f, expected ≈1.3", sp)
	}
	if sp := cpu / sys; sp < 2.2 || sp > 5 {
		t.Errorf("SysHK speedup vs CPU_H = %.2f, expected ≈3", sp)
	}
}

func TestRealTimeCrossoversMatchPaper(t *testing.T) {
	// Fig. 6(a) structure after the kernel speed pass: the calibrated
	// profiles are the Fig. 6 base anchoring divided by the measured
	// kernel speedups (device.DefaultCalibration), which shifts the
	// real-time frontier roughly one SA tier outward while preserving the
	// figure's ordering — heterogeneous systems beat the best GPU, GPUs
	// beat CPUs, and each device class falls out of real-time as the SA
	// (and with it the quadratic ME load) grows.
	check := func(pl *device.Platform, sa int, wantRT bool) {
		fts := runFrames(t, pl, wl1080p(sa, 1), 6)
		fps := fts[5].FPS()
		if (fps >= 25) != wantRT {
			t.Errorf("%s at SA %d: %.1f fps, want real-time=%v", pl.Name, sa, fps, wantRT)
		}
	}
	check(device.GPUOnly("GPU_F", device.GPUFermi()), 32, true)
	check(device.GPUOnly("GPU_K", device.GPUKepler()), 32, true)
	check(device.CPUOnly("CPU_N", device.CPUNehalemCore(), 4), 32, true)
	check(device.CPUOnly("CPU_N", device.CPUNehalemCore(), 4), 64, false)
	check(device.CPUOnly("CPU_H", device.CPUHaswellCore(), 4), 64, true)
	check(device.CPUOnly("CPU_H", device.CPUHaswellCore(), 4), 128, false)
	check(device.SysHK(), 64, true)
	check(device.SysNF(), 64, true)
	check(device.SysNFF(), 64, true)
	check(device.GPUOnly("GPU_F", device.GPUFermi()), 128, false)
	check(device.GPUOnly("GPU_K", device.GPUKepler()), 128, true)
	check(device.SysHK(), 128, true)
	check(device.SysNFF(), 128, true)
	check(device.SysHK(), 192, false)
}

func TestPerturbationRecovery(t *testing.T) {
	// Fig. 7: a sudden slowdown at one frame raises its time; the next
	// balanced frame recovers.
	pl := device.SysHK()
	pl.Perturb = func(frame, dev int) float64 {
		if frame == 5 && dev == 0 {
			return 3 // GPU 3× slower during frame 5
		}
		return 1
	}
	fts := runFrames(t, pl, wl1080p(32, 1), 8)
	base := fts[3].Tot
	if fts[4].Tot < base*1.3 {
		t.Fatalf("perturbed frame 5 (%.1f ms) should be much slower than %.1f ms",
			fts[4].Tot*1e3, base*1e3)
	}
	// Within two frames the distribution re-adapts.
	if fts[6].Tot > base*1.2 {
		t.Fatalf("frame 7 (%.1f ms) did not recover to ≈%.1f ms", fts[6].Tot*1e3, base*1e3)
	}
}

func TestDualCopyEngineNoSlower(t *testing.T) {
	w := wl1080p(64, 2)
	single := &device.Platform{Name: "1ce", GPUs: []device.Profile{device.GPUKepler()},
		CPUCore: device.CPUHaswellCore(), Cores: 4, Seed: 1}
	dual := &device.Platform{Name: "2ce", GPUs: []device.Profile{device.GPUKepler().WithCopyEngines(2)},
		CPUCore: device.CPUHaswellCore(), Cores: 4, Seed: 1}
	fs := runFrames(t, single, w, 6)
	fd := runFrames(t, dual, w, 6)
	if fd[5].Tot > fs[5].Tot*1.02 {
		t.Fatalf("dual copy engine (%.2f ms) slower than single (%.2f ms)",
			fd[5].Tot*1e3, fs[5].Tot*1e3)
	}
}

// TestCPUCentricPlatform covers the cooperative R* tail at both window
// sizes: on a platform whose GPU is terrible R* must move to the CPU, and
// with no GPU at all it runs sliced across the cores instead of as one
// exclusive kernel — for every frame of the window, with a consistent
// schedule.
func TestCPUCentricPlatform(t *testing.T) {
	snail := &device.Platform{Name: "snail",
		GPUs:    []device.Profile{device.GPUFermi().Scaled(50, "GPU_snail")},
		CPUCore: device.CPUHaswellCore(), Cores: 4, Seed: 1}
	cpuOnly := device.CPUOnly("CPU_H", device.CPUHaswellCore(), 4)
	for _, pl := range []*device.Platform{snail, cpuOnly} {
		for win := 1; win <= maxWindow; win++ {
			t.Run(fmt.Sprintf("%s/window%d", pl.Name, win), func(t *testing.T) {
				rounds := runWindows(t, &Manager{Platform: pl, Mode: TimingOnly}, wl1080p(32, 1), 5, win)
				for _, ft := range rounds[len(rounds)-1] {
					if ft.RStarDev < pl.NumGPUs() {
						t.Fatalf("frame %d: R* on GPU %d, should have moved to the CPU", ft.Frame, ft.RStarDev)
					}
					if !(ft.Tau1 > 0 && ft.Tau1 <= ft.Tau2 && ft.Tau2 <= ft.Tot) {
						t.Fatalf("frame %d: sync points out of order: %+v", ft.Frame, ft)
					}
					if win > 1 && ft.Tot > ft.PairMakespan {
						t.Fatalf("frame %d: τtot %v beyond the window makespan %v", ft.Frame, ft.Tot, ft.PairMakespan)
					}
					if ft.ModuleTime[sched.ModRStar] <= 0 {
						t.Fatalf("frame %d: cooperative R* time missing", ft.Frame)
					}
				}
			})
		}
	}
}

// encodeFunctional drives a functional VCM encode of the first `frames`
// frames of src on pl with win frames in flight (a trailing frame that
// does not fill a window is left out) and returns the encoder.
func encodeFunctional(t *testing.T, cfg codec.Config, pl *device.Platform, src *video.Synthetic, frames, win int) *codec.Encoder {
	t.Helper()
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeIntraFrame(src.FrameAt(0)); err != nil {
		t.Fatal(err)
	}
	dr := newDriver(&Manager{Platform: pl, Mode: Functional, Enc: enc})
	for dr.frame+win <= frames {
		fts, err := dr.step(t, win, func(frame, chain int) (device.Workload, *h264.Frame) {
			return device.Workload{MBW: cfg.Width / 16, MBH: cfg.Height / 16, SA: 2 * cfg.SearchRange,
				NumRF: cfg.NumRF, UsableRF: enc.DPBLenOn(chain)}, src.FrameAt(frame)
		})
		if err != nil {
			t.Fatalf("window at frame %d: %v", dr.frame, err)
		}
		for _, ft := range fts {
			if ft.Stats.Bits <= 0 {
				t.Fatalf("frame %d: functional stats missing", ft.Frame)
			}
		}
	}
	return enc
}

// TestFunctionalCollaborativeBitExact is the flagship integration test: a
// functional VCM encode on a simulated heterogeneous platform produces
// exactly the bitstream of the single-call reference encoder.
// TestPairFunctionalBitExact is its window-of-two counterpart against the
// two-chain reference.
func TestFunctionalCollaborativeBitExact(t *testing.T) { testFunctionalBitExact(t, 5, 1) }
func TestPairFunctionalBitExact(t *testing.T)          { testFunctionalBitExact(t, 7, 2) }

func testFunctionalBitExact(t *testing.T, frames, win int) {
	cfg := codec.Config{Width: 64, Height: 64, SearchRange: 8, NumRF: 2, IQP: 27, PQP: 28, Chains: win}
	src := video.NewSynthetic(cfg.Width, cfg.Height, frames, 7)
	ref, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if _, err := ref.EncodeFrame(src.FrameAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	enc := encodeFunctional(t, cfg, device.SysNF(), src, frames, win)
	if a, b := ref.Bitstream(), enc.Bitstream(); !bytes.Equal(a, b) {
		t.Fatalf("bitstreams differ (%d vs %d bytes)", len(a), len(b))
	}
	if !ref.LastRecon().Equal(enc.LastRecon()) {
		t.Fatal("reconstructions differ")
	}
}

// TestFunctionalModeValidation: functional mode needs an encoder, and a
// frame whose geometry matches the workload — at either window size.
func TestFunctionalModeValidation(t *testing.T) {
	w := wl1080p(32, 1)
	pm := sched.NewPerfModel(5, 1)
	window := func(win int, cf *h264.Frame) []FrameInput {
		ins := make([]FrameInput, win)
		for c := range ins {
			ins[c] = FrameInput{Frame: 1 + c, Chain: c, W: w, D: sched.Equidistant(5, w.Rows(), 0), CF: cf}
		}
		return ins
	}
	for win := 1; win <= maxWindow; win++ {
		m := &Manager{Platform: device.SysHK(), Mode: Functional}
		if _, err := m.EncodeFrames(pm, window(win, nil)...); err == nil {
			t.Fatalf("window %d: functional mode without encoder must fail", win)
		}
		cfg := codec.Config{Width: 64, Height: 64, SearchRange: 8, NumRF: 1, IQP: 27, PQP: 28, Chains: win}
		enc, _ := codec.NewEncoder(cfg)
		m.Enc = enc
		if _, err := enc.EncodeIntraFrame(h264.NewFrame(64, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EncodeFrames(pm, window(win, nil)...); err == nil {
			t.Fatalf("window %d: functional mode without a frame must fail", win)
		}
		// Frame geometry mismatch with the 1080p workload.
		if _, err := m.EncodeFrames(pm, window(win, h264.NewFrame(64, 64))...); err == nil {
			t.Fatalf("window %d: geometry mismatch must fail", win)
		}
	}
}

func TestDistributionMismatchRejected(t *testing.T) {
	m := &Manager{Platform: device.SysHK(), Mode: TimingOnly}
	w := wl1080p(32, 1)
	good := sched.Equidistant(5, w.Rows(), 0)
	bad := sched.Equidistant(3, w.Rows(), 0) // SysHK has 5 devices
	pm := sched.NewPerfModel(5, 1)
	if _, err := m.EncodeFrames(pm, FrameInput{Frame: 1, W: w, D: bad}); err == nil {
		t.Fatal("device-count mismatch must fail")
	}
	// The mismatch is caught on whichever slot carries it.
	if _, err := m.EncodeFrames(pm, FrameInput{Frame: 1, W: w, D: good},
		FrameInput{Frame: 2, Chain: 1, W: w, D: bad}); err == nil {
		t.Fatal("device-count mismatch on the second slot must fail")
	}
}

// TestPairInputValidation walks the rejection branches the other
// validation tests do not: window sizes the builder cannot hold, a window
// whose frames share a chain, rows or R* landing on an excluded device,
// and a functional frame on a chain its encoder does not have.
func TestPairInputValidation(t *testing.T) {
	pl := device.SysHK()
	nDev := pl.NumDevices()
	w := wl1080p(32, 1)
	rows := w.Rows()
	pm := sched.NewPerfModel(nDev, 0.8)
	good := sched.Equidistant(nDev, rows, 0)
	in := func(frame, chain int) FrameInput {
		return FrameInput{Frame: frame, Chain: chain, W: w, D: good}
	}

	m := &Manager{Platform: pl, Mode: TimingOnly}
	if _, err := m.EncodeFrames(pm); err == nil {
		t.Fatal("empty window must be rejected")
	}
	if _, err := m.EncodeFrames(pm, in(1, 0), in(2, 1), in(3, 2)); err == nil {
		t.Fatal("window of three must be rejected")
	}
	if _, err := m.EncodeFrames(pm, in(1, 0), in(2, 0)); err == nil {
		t.Fatal("window sharing a chain must be rejected")
	}

	down := make([]bool, nDev)
	down[0] = true
	md := &Manager{Platform: pl, Mode: TimingOnly, Down: down}
	// Zero rows on the excluded device but R* still placed there.
	orphanRStar := in(1, 0)
	orphanRStar.D = sched.EquidistantExcluding(nDev, rows, 0, down)
	for win := 1; win <= maxWindow; win++ {
		if _, err := md.EncodeFrames(pm, []FrameInput{in(1, 0), in(2, 1)}[:win]...); err == nil {
			t.Fatalf("window %d: rows on an excluded device must be rejected", win)
		}
		if _, err := md.EncodeFrames(pm, []FrameInput{orphanRStar, in(2, 1)}[:win]...); err == nil {
			t.Fatalf("window %d: R* on an excluded device must be rejected", win)
		}
	}

	cfg := codec.Config{Width: 1920, Height: 1088, SearchRange: 8, NumRF: 1, IQP: 27, PQP: 28}
	single, err := codec.NewEncoder(cfg) // Chains defaults to 1
	if err != nil {
		t.Fatal(err)
	}
	mf := &Manager{Platform: pl, Mode: Functional, Enc: single}
	a, b := in(1, 0), in(2, 1)
	a.CF, b.CF = h264.NewFrame(1920, 1088), h264.NewFrame(1920, 1088)
	if _, err := mf.EncodeFrames(pm, a, b); err == nil {
		t.Fatal("single-chain encoder must be rejected for frame-parallel encoding")
	}
}

// TestPairDeadlineBlamesCulpritFrame pins the cross-frame blame rule: on
// the shared FIFO engines a fault landing on frame B's kernels drags
// frame A's τtot past its budget too, but only frame B's evidence names
// the sick device — so the pair must surface B's DeadlineError, the one
// failover can act on, not A's blameless timeout.
func TestPairDeadlineBlamesCulpritFrame(t *testing.T) {
	pl := device.SysNFF()
	const victim = 9 // frame 9/10 pair: the fault hits frame 10 (slot B)
	pl.Perturb = func(frame, dev int) float64 {
		if dev == 0 && frame == victim+1 {
			return 50
		}
		return 1
	}
	m := &Manager{Platform: pl, Mode: TimingOnly}
	w := wl1080p(32, 1)
	warm := runWindows(t, m, w, 4, 2) // frames 1..8, clean
	clean := warm[3]

	topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
	pm := sched.NewPerfModel(topo.NumDevices(), 0.8)
	d := sched.Equidistant(topo.NumDevices(), w.Rows(), 0)
	budget := Deadline{Tot: clean[0].PairMakespan * 1.5}
	_, err := m.EncodeFrames(pm,
		FrameInput{Frame: victim, Chain: 0, W: w, D: d, Deadline: budget},
		FrameInput{Frame: victim + 1, Chain: 1, W: w, D: d, Deadline: budget})
	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("got %v, want a DeadlineError", err)
	}
	if len(derr.Blamed) == 0 {
		t.Fatalf("deadline error carries no blame: %v", derr)
	}
	if derr.Blamed[0] != 0 {
		t.Fatalf("blamed device %v, want the perturbed device 0: %v", derr.Blamed, derr)
	}
	if derr.Frame != victim+1 {
		t.Fatalf("blame surfaced on frame %d, want the culprit frame %d: %v", derr.Frame, victim+1, derr)
	}
	if msg := derr.Error(); !strings.Contains(msg, "blaming device(s) 0") {
		t.Fatalf("error message does not name the culprit: %q", msg)
	}
	if msg := (&DeadlineError{Frame: 3, Point: "tau_tot"}).Error(); !strings.Contains(msg, "no single device to blame") {
		t.Fatalf("blameless error message: %q", msg)
	}

	// The task-budget safety net needs no model: any single kernel over
	// the cap fails the window — of one frame or two — with the offending
	// device blamed directly.
	tiny := Deadline{TaskBudget: 1e-12}
	for win := 1; win <= maxWindow; win++ {
		ins := []FrameInput{
			{Frame: 1, Chain: 0, W: w, D: d, Deadline: tiny},
			{Frame: 2, Chain: 1, W: w, D: d},
		}
		_, err = m.EncodeFrames(sched.NewPerfModel(topo.NumDevices(), 0.8), ins[:win]...)
		if !errors.As(err, &derr) {
			t.Fatalf("window %d: got %v, want a DeadlineError", win, err)
		}
		if derr.Point != "task" || len(derr.Blamed) == 0 {
			t.Fatalf("window %d: task budget breach reported as %q with blame %v", win, derr.Point, derr.Blamed)
		}
	}
}

// TestPairSceneCutAbortsFrameB splices a hard scene change onto a pair's
// first slot: frame A must come back as a completed intra frame with
// ErrPairSceneCut, frame B untouched — and the encoder must be left in a
// state from which encoding simply continues.
func TestPairSceneCutAbortsFrameB(t *testing.T) {
	const wpx, hpx = 64, 64
	cfg := codec.Config{Width: wpx, Height: hpx, SearchRange: 8, NumRF: 1,
		IQP: 27, PQP: 28, Chains: 2, SceneCutThreshold: 8}
	calm := video.NewSynthetic(wpx, hpx, 6, 7)
	burst := video.NewSynthetic(wpx, hpx, 6, 977)
	frameAt := func(i int) *h264.Frame {
		if i >= 3 {
			return burst.FrameAt(i)
		}
		return calm.FrameAt(i)
	}

	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := device.SysNF()
	topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
	pm := sched.NewPerfModel(topo.NumDevices(), 0.8)
	m := &Manager{Platform: pl, Mode: Functional, Enc: enc}
	if _, err := enc.EncodeIntraFrame(frameAt(0)); err != nil {
		t.Fatal(err)
	}
	pair := func(fa, chainA int) ([]FrameTiming, error) {
		var ins [2]FrameInput
		for c := 0; c < 2; c++ {
			chain := (chainA + c) % 2
			w := device.Workload{MBW: wpx / 16, MBH: hpx / 16, SA: 16, NumRF: cfg.NumRF,
				UsableRF: min(enc.DPBLenOn(chain), cfg.NumRF)}
			ins[c] = FrameInput{Frame: fa + c, Chain: chain, W: w,
				D: sched.Equidistant(topo.NumDevices(), w.Rows(), 0), CF: frameAt(fa + c)}
		}
		return m.EncodeFrames(pm, ins[:]...)
	}

	if _, err := pair(1, 0); err != nil {
		t.Fatalf("calm pair: %v", err)
	}
	fts, err := pair(3, 0)
	if !errors.Is(err, ErrPairSceneCut) {
		t.Fatalf("got %v, want ErrPairSceneCut", err)
	}
	if len(fts) != 1 || fts[0].Frame != 3 {
		t.Fatalf("scene cut returned %d timings, want frame A alone: %+v", len(fts), fts)
	}
	if !fts[0].Stats.Intra {
		t.Fatal("scene-cut frame A not reported as intra")
	}
	// The cut reseeded every chain from the new IDR; the next pair picks
	// up with frame 4 on chain 0 (lastIntra is now 3) and must succeed.
	if n := enc.DPBLenOn(0); n != 1 {
		t.Fatalf("chain 0 holds %d references after the cut, want 1", n)
	}
	if _, err := pair(4, 0); err != nil {
		t.Fatalf("pair after scene cut: %v", err)
	}
}

func TestModuleTimesPopulated(t *testing.T) {
	fts := runFrames(t, device.GPUOnly("GPU_K", device.GPUKepler()), wl1080p(32, 1), 2)
	ft := fts[1]
	for mod := sched.ModME; mod <= sched.ModRStar; mod++ {
		if ft.ModuleTime[mod] <= 0 {
			t.Fatalf("module %v time missing", mod)
		}
	}
	// §II: ME dominates the inter-loop at this SA.
	if ft.ModuleTime[sched.ModME] < ft.ModuleTime[sched.ModSME] {
		t.Fatal("ME should dominate SME")
	}
}

func TestFPSHelper(t *testing.T) {
	if (FrameTiming{Tot: 0.04}).FPS() != 25 {
		t.Fatal("FPS wrong")
	}
	if (FrameTiming{}).FPS() != 0 {
		t.Fatal("zero-time FPS should be 0")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSpansConsistentWithSyncPoints(t *testing.T) {
	fts := runFrames(t, device.SysNF(), wl1080p(32, 1), 3)
	ft := fts[2]
	if len(ft.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var maxEnd float64
	tau1Seen, tau2Seen := false, false
	for _, s := range ft.Spans {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Label)
		}
		if s.End > maxEnd {
			maxEnd = s.End
		}
		switch s.Label {
		case "tau1":
			tau1Seen = true
			if s.End != ft.Tau1 {
				t.Fatalf("tau1 span ends at %v, FrameTiming says %v", s.End, ft.Tau1)
			}
		case "tau2":
			tau2Seen = true
			if s.End != ft.Tau2 {
				t.Fatalf("tau2 span ends at %v, FrameTiming says %v", s.End, ft.Tau2)
			}
		}
	}
	if !tau1Seen || !tau2Seen {
		t.Fatal("synchronization barriers missing from spans")
	}
	if maxEnd != ft.Tot {
		t.Fatalf("latest span ends at %v, τtot is %v", maxEnd, ft.Tot)
	}
	// Every resource's spans are serialized.
	byRes := map[string]float64{}
	for _, s := range ft.Spans {
		if s.Start < byRes[s.Resource] {
			t.Fatalf("resource %s overlaps at %v", s.Resource, s.Start)
		}
		byRes[s.Resource] = s.End
	}
}

// TestCheckObserveMode tampers a distribution so the invariant checker
// fires, and verifies the two wirings at both window sizes: fatal by
// default, counted into the telemetry sink (feves_check_violations_total)
// in observe mode — the serving path, where one tenant's broken schedule
// must not kill the session.
func TestCheckObserveMode(t *testing.T) {
	pl := device.SysHK()
	nDev := pl.NumDevices()
	w := wl1080p(32, 1)
	good := sched.Equidistant(nDev, w.Rows(), 0)
	bad := sched.Equidistant(nDev, w.Rows(), 0)
	// Prefetch more SF rows than the device can possibly miss — passes the
	// row-sum validation vcm itself does, but breaks the checker's σ
	// accounting (dist.sigma-overrun).
	bad.Sigma[0] = w.Rows()

	for win := 1; win <= maxWindow; win++ {
		t.Run(fmt.Sprintf("window%d", win), func(t *testing.T) {
			run := func(m *Manager) error {
				ins := []FrameInput{
					{Frame: 1, Chain: 0, W: w, D: bad, PrevSigmaR: make([]int, nDev)},
					{Frame: 2, Chain: 1, W: w, D: good},
				}
				_, err := m.EncodeFrames(sched.NewPerfModel(nDev, 0.8), ins[:win]...)
				return err
			}
			if err := run(&Manager{Platform: pl, Mode: TimingOnly, Check: true}); err == nil {
				t.Fatal("broken distribution passed the fatal checker")
			}
			tel := telemetry.New(nil)
			if err := run(&Manager{Platform: pl, Mode: TimingOnly, Check: true,
				CheckObserve: true, Telemetry: tel}); err != nil {
				t.Fatalf("observe mode must not fail the window: %v", err)
			}
			if text := tel.Metrics.Expose(); !strings.Contains(text, "feves_check_violations_total") {
				t.Fatalf("violation not counted:\n%s", text)
			}
		})
	}
}
