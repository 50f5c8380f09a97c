package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	"feves"
	"feves/internal/core"
	"feves/internal/platforms"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

// simSpec is one timing-only session: a platform and the coding geometry.
type simSpec struct {
	platform string
	cfg      feves.Config
}

// simulateSize fixes the simulate workload. The sessions are stepped round
// robin, one block each per round, so each contributes the same number of
// latency samples however its cost compares with the others': the median
// then lies inside the middle session's mode and p90 inside the dearest
// one's, not on a boundary between modes.
type simulateSize struct {
	sessions []simSpec
	// block is the number of Steps behind one latency sample (pair
	// buffering makes single Steps bimodal).
	block int
	// exactRounds rounds are always run and are the ones the oracle, the
	// digest and the exact model outputs cover.
	exactRounds int
	// traceSteps is the per-session length of the traced pass.
	traceSteps int
}

var simulate1080p = simulateSize{
	sessions: []simSpec{
		{"syshk", feves.Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}},
		{"sysnff", feves.Config{Width: 1920, Height: 1088, SearchArea: 64, RefFrames: 4}},
		{"sysnfk", feves.Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 2,
			FrameParallel: true, CheckSchedules: true, DeadlineSlack: 3}},
	},
	block: 100, exactRounds: 20, traceSteps: 2000,
}

type simulateInst struct {
	sz      simulateSize
	sims    []*feves.Simulation
	kept    [][]feves.FrameReport // per session, the exactRounds×block first reports
	stepped int
}

func setupSimulate(sz simulateSize, _ uint64) (instance, error) {
	// The model's inputs are the platform and the geometry; nothing here
	// is random, so the seed has nothing to vary.
	in := &simulateInst{sz: sz, kept: make([][]feves.FrameReport, len(sz.sessions))}
	for _, sp := range sz.sessions {
		warm, err := feves.NewSimulation(sp.cfg, publicPlatform(sp.platform))
		if err != nil {
			return nil, err
		}
		if _, err := warm.Run(sz.block); err != nil {
			return nil, err
		}
		sim, err := feves.NewSimulation(sp.cfg, publicPlatform(sp.platform))
		if err != nil {
			return nil, err
		}
		in.sims = append(in.sims, sim)
	}
	return in, nil
}

func (in *simulateInst) close() {}

func (in *simulateInst) measure(win time.Duration) measurement {
	var m measurement
	sz := in.sz
	m.wall, m.allocated = window(func() {
		start := time.Now()
		for round := 0; round < sz.exactRounds || time.Since(start) < win; round++ {
			for s, sim := range in.sims {
				t0 := time.Now()
				for i := 0; i < sz.block; i++ {
					r, err := sim.Step()
					m.attempted++
					if err != nil {
						m.failed++
						return
					}
					if round < sz.exactRounds {
						in.kept[s] = append(in.kept[s], r)
					}
				}
				m.opMs = append(m.opMs, ms(time.Since(t0))/float64(sz.block))
				m.frames += sz.block
			}
		}
	})
	in.stepped = m.frames
	return m
}

// verify checks every kept report against the schedule's own invariants:
// consecutive frame numbers, τ1 ≤ τ2 ≤ τtot, and row distributions that
// sum to the frame's macroblock rows.
func (in *simulateInst) verify() (int, string) {
	wrong := 0
	var buf []byte
	for s, reports := range in.kept {
		rows := in.sz.sessions[s].cfg.Height / 16
		for i, r := range reports {
			ok := r.Frame == i
			if !r.Intra {
				ok = ok && r.Seconds > 0 && r.Tau1 <= r.Tau2 && r.Tau2 <= r.Seconds &&
					sum(r.MERows) == rows && sum(r.INTRows) == rows && sum(r.SMERows) == rows
			}
			if !ok {
				wrong++
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Seconds))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.PairSeconds))
			for _, v := range r.MERows {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
			}
		}
	}
	return wrong, digest(buf)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// layers: the whole workload is control path, so core.control_share is
// read here as the share of a Step spent inside SchedOverhead.
func (in *simulateInst) layers(win time.Duration, tr *tracer, m metricSet) error {
	ctl, err := controlProbes(in.sz.sessions, scaleCount(in.sz.traceSteps, win), tr, m)
	if err != nil {
		return err
	}
	m.set("model.virtual_fps", ctl.virtualFPS, 0)
	m.set("core.retries", float64(ctl.retries), 0)
	m.set("core.control_share", m["sched.overhead_us_p50"].Value/ctl.stepUs, 0)
	m.set("trace.overhead_ratio", ctl.traceRatio, 0)
	m.set("trace.spans", float64(tr.count()), 0)
	return nil
}

// simRun is what one timing-only session observed.
type simRun struct {
	frameUs    []float64 // wall per frame
	overheadUs []float64 // FrameReport.SchedOverhead per frame
	scheduleUs []float64 // wall − SchedOverhead per frame
	predErr    []float64
	frames     []frameOut
	allocated  uint64
	mallocs    uint64
	solves     int
	pivots     int
	warm       int
	retries    int
}

// simDriver steps one timing-only core.Framework exactly as
// feves.Simulation.Step drives it; it is built here so the solver and
// retry counters are readable.
type simDriver struct {
	fw   *core.Framework
	tr   *tracer
	lane int
	run  simRun
}

func newSimDriver(sp simSpec, check bool, tel *telemetry.Telemetry, tr *tracer, lane int) (*simDriver, error) {
	pl, err := platforms.Lookup(sp.platform)
	if err != nil {
		return nil, err
	}
	fw, err := core.New(core.Options{
		Platform: pl, Codec: codecConfig(sp.cfg), Mode: vcm.TimingOnly,
		Telemetry: tel, CheckSchedules: check,
		DeadlineSlack: sp.cfg.DeadlineSlack, FrameParallel: sp.cfg.FrameParallel,
	})
	if err != nil {
		return nil, fmt.Errorf("control path on %s: %w", sp.platform, err)
	}
	return &simDriver{fw: fw, tr: tr, lane: lane}, nil
}

// step advances the session by at least n frames.
func (d *simDriver) step(n int) error {
	run := &d.run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for target := len(run.frameUs) + n; len(run.frameUs) < target; {
		id := strconv.Itoa(len(run.frameUs))
		t0 := time.Now()
		s := d.tr.begin("sim.step", id, d.lane, -1)
		ra, rb, paired, err := d.fw.EncodePair(nil, nil)
		d.tr.end(s)
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		results := []core.Result{ra}
		if paired {
			results = append(results, rb)
		}
		// A pair is balanced once and reports that on its first frame;
		// both frames share it here, as they share the call's wall time.
		d.tr.add("sched", id, d.lane, s, t0, t0.Add(ra.SchedOverhead))
		per := us(wall) / float64(len(results))
		over := us(ra.SchedOverhead) / float64(len(results))
		for _, r := range results {
			run.frameUs = append(run.frameUs, per)
			run.overheadUs = append(run.overheadUs, over)
			run.scheduleUs = append(run.scheduleUs, per-over)
			if p := r.Distribution.PredTot; p > 0 && r.Timing.Tot > 0 {
				run.predErr = append(run.predErr, math.Abs(p-r.Timing.Tot)/r.Timing.Tot)
			}
			run.frames = append(run.frames, frameOut{seconds: r.Timing.Tot, pairSeconds: r.Timing.PairMakespan})
		}
	}
	runtime.ReadMemStats(&after)
	run.allocated += after.TotalAlloc - before.TotalAlloc
	run.mallocs += after.Mallocs - before.Mallocs
	st := d.fw.SolverStats()
	run.solves, run.pivots, run.warm = st.Solves, st.Pivots, st.WarmSolves
	run.retries = d.fw.FrameRetries()
	return nil
}

// controlOut is what controlProbes hands back beside the metrics it sets:
// values that a workload with a functional encode or a coarser traced
// pass reports from there instead.
type controlOut struct {
	stepUs     float64 // median wall per frame, µs
	virtualFPS float64
	retries    int
	traceRatio float64 // traced ÷ untraced wall per frame, first session
}

// controlProbes measures the timing-only control path — LP + Δ fixed
// point, schedule build, simclock, checker, telemetry — on the given
// sessions, pooling their samples. The checker and telemetry costs are
// on-minus-off differences on the last session, the tracing overhead a
// traced-over-untraced ratio on the first. All sessions advance round
// robin in blocks, so drift in the host's speed lands on every side of a
// difference alike.
func controlProbes(specs []simSpec, steps int, tr *tracer, m metricSet) (controlOut, error) {
	obs, err := feves.NewObserver(feves.ObserverConfig{Events: io.Discard, Perfetto: io.Discard})
	if err != nil {
		return controlOut{}, err
	}
	defer obs.Close()
	last := specs[len(specs)-1]
	var drivers []*simDriver
	add := func(sp simSpec, check bool, tel *telemetry.Telemetry, tr *tracer, lane int) error {
		d, err := newSimDriver(sp, check, tel, tr, lane)
		drivers = append(drivers, d)
		return err
	}
	for lane, sp := range specs {
		if err := add(sp, sp.cfg.CheckSchedules, nil, tr, lane); err != nil {
			return controlOut{}, err
		}
	}
	base := drivers
	for _, v := range []struct {
		sp    simSpec
		check bool
		tel   *telemetry.Telemetry
	}{
		{last, false, nil},
		{last, true, nil},
		{last, false, obs.Sink().ForSession("bench")},
		{specs[0], specs[0].cfg.CheckSchedules, nil},
	} {
		if err := add(v.sp, v.check, v.tel, nil, 0); err != nil {
			return controlOut{}, err
		}
	}
	plain, checked, observed, untraced := drivers[len(base)], drivers[len(base)+1], drivers[len(base)+2], drivers[len(base)+3]
	const block = 100
	for done := 0; done < steps; done += block {
		for _, d := range drivers {
			if err := d.step(block); err != nil {
				return controlOut{}, err
			}
		}
	}

	var all simRun
	for _, d := range base {
		run := d.run
		all.frameUs = append(all.frameUs, run.frameUs...)
		all.overheadUs = append(all.overheadUs, run.overheadUs...)
		all.scheduleUs = append(all.scheduleUs, run.scheduleUs...)
		all.predErr = append(all.predErr, run.predErr...)
		all.frames = append(all.frames, run.frames...)
		all.allocated += run.allocated
		all.solves += run.solves
		all.pivots += run.pivots
		all.warm += run.warm
		all.retries += run.retries
	}
	n := len(all.frameUs)
	frames := float64(n)
	m.setPercentile("sched.overhead_us_p50", all.overheadUs, 0.5)
	m.setPercentile("sched.overhead_us_p99", all.overheadUs, 0.99)
	m.setPercentile("vcm.schedule_us_p50", all.scheduleUs, 0.5)
	m.set("sim.alloc_b_per_frame", float64(all.allocated)/frames, n)
	m.set("lp.solves_per_frame", float64(all.solves)/frames, n)
	m.set("lp.pivots_per_solve", float64(all.pivots)/math.Max(1, float64(all.solves)), all.solves)
	m.set("lp.warm_rate", float64(all.warm)/math.Max(1, float64(all.solves)), all.solves)
	m.set("model.pred_error", mean(all.predErr), len(all.predErr))
	off := median(plain.run.frameUs)
	m.set("check.us_per_frame", median(checked.run.frameUs)-off, steps)
	m.set("telemetry.us_per_frame", median(observed.run.frameUs)-off, steps)
	m.set("telemetry.allocs_per_frame",
		(float64(observed.run.mallocs)-float64(plain.run.mallocs))/float64(len(plain.run.frameUs)), steps)
	vfps, _, _ := exact(all.frames)
	return controlOut{
		stepUs:     median(all.frameUs),
		virtualFPS: vfps,
		retries:    all.retries,
		traceRatio: median(base[0].run.frameUs) / median(untraced.run.frameUs),
	}, nil
}
