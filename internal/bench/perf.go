package bench

import (
	"fmt"
	"runtime"
	"time"

	"feves"
	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/fleet"
	"feves/internal/h264/codec"
	"feves/internal/serve"
	"feves/internal/vcm"
)

// PerfMetric is one measured performance number of the control path,
// annotated with its regression-gate semantics. Direction states which
// way is better: "higher" and "lower" metrics are gated by ComparePerf,
// "info" metrics are recorded but never fail a comparison (wall-clock
// noise on shared CI machines makes absolute times ungateable). Slop is
// an absolute allowance added on top of the relative tolerance so
// near-zero baselines (0 allocs/frame) don't turn measurement jitter
// into failures.
type PerfMetric struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Direction string  `json:"direction"`
	Slop      float64 `json:"slop,omitempty"`
}

// PerfReport is the perf experiment's machine-readable result — the
// committed BENCH_10.json baseline and the shape CI compares against it.
type PerfReport struct {
	Metrics []PerfMetric `json:"metrics"`
}

// perfFrames is the steady-state measurement window of the frame-loop
// metrics; perfWarmup frames run first so every retained buffer is sized
// and the EWMA model has converged.
const (
	perfWarmup = 60
	perfFrames = 200
)

// Perf measures the V4 control-path metrics: simulated steady-state
// throughput on the two headline systems, the allocation footprint and
// scheduling overhead of the steady-state frame loop, and the LP
// warm-start hit rate. Simulated fps and allocation counts are
// deterministic; wall-clock overhead is informational only.
func Perf() PerfReport {
	var r PerfReport
	add := func(name string, value float64, unit, dir string, slop float64) {
		r.Metrics = append(r.Metrics, PerfMetric{Name: name, Value: value, Unit: unit, Direction: dir, Slop: slop})
	}

	fpsHK := steady(cfg1080p(32, 1), feves.SysHK())
	add("steady_fps_syshk", fpsHK, "fps", "higher", 0)
	add("steady_fps_sysnff", steady(cfg1080p(32, 1), feves.SysNFF()), "fps", "higher", 0)

	// Frame-parallel throughput on the headline system, plus its ratio to
	// the serial single-chain run. Both sides are averaged over the second
	// half of an 80-frame run — per-frame fps jitters with the LP's
	// re-optimization, and a single-frame sample would gate on noise. The
	// joint schedule only fills the serial schedule's synchronization
	// stalls, so the gain is a few percent (the LP schedule is already
	// ~88% bottleneck-utilized on SysHK, see EXPERIMENTS.md V6); the ratio
	// gates that pairing keeps paying its way.
	fpCfg := cfg1080p(32, 1)
	fpCfg.FrameParallel = true
	fpsSerialAvg := steadyWindow(cfg1080p(32, 1), feves.SysHK(), 80)
	fpsFP := steadyWindow(fpCfg, feves.SysHK(), 80)
	add("steady_fps_syshk_fp", fpsFP, "fps", "higher", 0)
	add("fp_speedup", fpsFP/fpsSerialAvg, "ratio", "higher", 0.02)

	fw, err := core.New(core.Options{
		Platform: device.SysNFF(),
		Codec: codec.Config{Width: 1920, Height: 1088, SearchRange: 16,
			NumRF: 1, IQP: 27, PQP: 28},
		Mode: vcm.TimingOnly,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	step := func() core.Result {
		res, err := fw.EncodeNext(nil)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		return res
	}
	for i := 0; i < perfWarmup; i++ {
		step()
	}
	statsBefore := fw.SolverStats()
	var overhead, worst time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < perfFrames; i++ {
		o := step().SchedOverhead
		overhead += o
		if o > worst {
			worst = o
		}
	}
	runtime.ReadMemStats(&ms1)
	st := fw.SolverStats()

	// Half an allocation (and a cache line of bytes) of absolute slop: the
	// loop itself is allocation-free, but runtime background work can land
	// a stray object inside the window on a busy CI machine.
	add("frame_allocs", float64(ms1.Mallocs-ms0.Mallocs)/perfFrames, "allocs/frame", "lower", 0.5)
	add("frame_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/perfFrames, "B/frame", "lower", 64)

	// The same allocation discipline must hold with two frames in flight:
	// the pair path runs from retained per-slot scratch, so the
	// steady-state cost of frame-parallel operation is also 0 allocs/frame.
	fwp, err := core.New(core.Options{
		Platform: device.SysNFF(),
		Codec: codec.Config{Width: 1920, Height: 1088, SearchRange: 16,
			NumRF: 1, IQP: 27, PQP: 28, Chains: 2},
		Mode:          vcm.TimingOnly,
		FrameParallel: true,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	pairStep := func() {
		if _, _, _, err := fwp.EncodePair(nil, nil); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	for i := 0; i < perfWarmup; i++ {
		pairStep()
	}
	runtime.ReadMemStats(&ms0)
	for i := 0; i < perfFrames/2; i++ {
		pairStep()
	}
	runtime.ReadMemStats(&ms1)
	add("pair_frame_allocs", float64(ms1.Mallocs-ms0.Mallocs)/perfFrames, "allocs/frame", "lower", 0.5)
	add("pair_frame_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/perfFrames, "B/frame", "lower", 64)

	solves := st.Solves - statsBefore.Solves
	warm := st.WarmSolves - statsBefore.WarmSolves
	if solves > 0 {
		add("lp_warm_rate", float64(warm)/float64(solves), "ratio", "higher", 0.02)
		add("lp_pivots_per_solve", float64(st.Pivots-statsBefore.Pivots)/float64(solves), "pivots", "lower", 1)
	}
	add("sched_overhead_us", float64(overhead.Microseconds())/perfFrames, "us/frame", "info", 0)
	// The worst sample is reported here, against the paper's 2000 µs bound,
	// rather than asserted in tier-1: one descheduling on a loaded host
	// moves it without saying anything about the scheduler.
	add("sched_overhead_worst_us", float64(worst.Microseconds()), "us", "info", 0)

	perfFleet(add)
	perfFleetShed(add)
	perfKernels(add)
	return r
}

// perfFleet measures the fleet coordinator's routing path: a sequence of
// small jobs routed across three nodes exercises the third-level LP with
// drifting loads on a constant problem shape, so every decision should be
// LP-decided and (past the first) warm-started. Wall-clock routing cost
// rides along as an informational metric.
func perfFleet(add func(name string, value float64, unit, dir string, slop float64)) {
	f, err := fleet.New(fleet.Config{Nodes: fleetNodes(3)})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	defer f.Close()
	const jobs = 24
	var routing time.Duration
	for i := 0; i < jobs; i++ {
		start := time.Now()
		ref, err := f.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 3,
		})
		routing += time.Since(start)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		ref.Job.Wait()
	}
	rs := f.State().Router
	if rs.Routes > 0 {
		add("fleet_lp_route_rate", float64(rs.LPRoutes)/float64(rs.Routes), "ratio", "higher", 0.02)
	}
	if rs.Solver.Solves > 0 {
		add("fleet_lp_warm_rate", float64(rs.Solver.WarmSolves)/float64(rs.Solver.Solves), "ratio", "higher", 0.02)
	}
	add("fleet_submit_us", float64(routing.Microseconds())/jobs, "us/job", "info", 0)
}

// steadyWindow simulates `frames` frames and returns the mean encoding
// rate over the second half of the run: simulated seconds per frame, with
// paired frames charged half their group's joint makespan.
func steadyWindow(cfg feves.Config, pl *feves.Platform, frames int) float64 {
	sim, err := feves.NewSimulation(cfg, withFaults(pl))
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	reports, err := sim.Run(frames)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	var secs float64
	n := 0
	for _, r := range reports[frames/2:] {
		if r.Intra {
			continue
		}
		if r.PairSeconds > 0 {
			secs += r.PairSeconds / 2
		} else {
			secs += r.Seconds
		}
		n++
	}
	return float64(n) / secs
}

// PerfTable renders a PerfReport for human consumption.
func PerfTable(r PerfReport) Table {
	t := Table{
		Title:   "V4 control-path performance (gated metrics regress CI)",
		Columns: []string{"metric", "value", "unit", "better"},
	}
	for _, m := range r.Metrics {
		t.Rows = append(t.Rows, []string{m.Name, fmt.Sprintf("%.4g", m.Value), m.Unit, m.Direction})
	}
	return t
}

// ComparePerf checks current against a committed baseline with a
// relative tolerance (plus each metric's absolute slop) and returns one
// message per regression; an empty slice means the gate is green.
// Metrics present in the baseline must exist in the current run —
// silently dropping a gate would hide exactly the regressions the
// harness is for. "info" metrics never fail.
func ComparePerf(baseline, current PerfReport, tol float64) []string {
	cur := make(map[string]PerfMetric, len(current.Metrics))
	for _, m := range current.Metrics {
		cur[m.Name] = m
	}
	var fails []string
	for _, b := range baseline.Metrics {
		c, ok := cur[b.Name]
		if !ok {
			if b.Direction != "info" {
				fails = append(fails, fmt.Sprintf("%s: gated metric missing from current run", b.Name))
			}
			continue
		}
		switch b.Direction {
		case "higher":
			if floor := b.Value*(1-tol) - b.Slop; c.Value < floor {
				fails = append(fails, fmt.Sprintf("%s: %.4g %s is below the baseline %.4g (floor %.4g at %.0f%% tolerance)",
					b.Name, c.Value, b.Unit, b.Value, floor, 100*tol))
			}
		case "lower":
			if ceil := b.Value*(1+tol) + b.Slop; c.Value > ceil {
				fails = append(fails, fmt.Sprintf("%s: %.4g %s is above the baseline %.4g (ceiling %.4g at %.0f%% tolerance)",
					b.Name, c.Value, b.Unit, b.Value, ceil, 100*tol))
			}
		}
	}
	return fails
}

// perfFleetShed pins the queue-aware routing counters. Shed rate: node0
// is deepened with three heavy simulations submitted directly to its
// server — invisible to capacity-only routing, fully visible to the
// queue-aware cap rows — and every coordinator probe must route around
// it. Speculative releases: a second fleet gives node0 one session slot
// occupied by a wide filler encode (light routed weight, long wall time),
// so the shard the LP places there sits queued at zero progress while its
// sibling finishes; the straggler detector must re-lease it exactly once.
func perfFleetShed(add func(name string, value float64, unit, dir string, slop float64)) {
	f, err := fleet.New(fleet.Config{Nodes: fleetNodes(2)})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	srv0, _ := f.Node("node0")
	deepRefs := make([]*serve.Job, 0, 3)
	for i := 0; i < 3; i++ {
		j, err := srv0.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 5000,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		deepRefs = append(deepRefs, j)
	}
	const probes = 6
	for i := 0; i < probes; i++ {
		ref, err := f.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 5,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		ref.Job.Wait()
	}
	add("fleet_shed_rate", float64(f.State().Shed)/probes, "ratio", "higher", 0.02)
	for _, j := range deepRefs {
		j.Cancel()
	}
	f.Close()

	nodes := fleetNodes(2)
	nodes[0].MaxSessions = 1
	f, err = fleet.New(fleet.Config{Nodes: nodes, SpecSlack: 0.5, MissLimit: 1 << 20})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	defer f.Close()
	srv0, _ = f.Node("node0")
	if _, err := srv0.Submit(serve.JobSpec{
		Name: "filler", Mode: serve.ModeEncode,
		Width: 4096, Height: 64, IntraPeriod: 4, YUV: syntheticYUV(4096, 64, 7),
	}); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	st, err := f.SubmitStream(fleet.StreamSpec{
		Name: "spec", Mode: serve.ModeEncode,
		Width: 64, Height: 64, IntraPeriod: 4, MaxShards: 2,
		YUV: syntheticYUV(64, 64, 16),
	})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	waitDone := make(chan serve.Status, 1)
	go func() { waitDone <- st.Wait() }()
	for ticking := true; ticking; {
		select {
		case <-waitDone:
			ticking = false
		case <-time.After(time.Millisecond):
			f.Tick()
		}
	}
	add("fleet_speculative_releases", float64(f.State().SpecReleases), "count", "higher", 0)
}
