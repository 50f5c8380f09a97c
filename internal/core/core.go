// Package core implements the Framework Control block of FEVES
// (Algorithm 1 of the paper): the top-level loop that detects the platform,
// runs the initialization phase (equidistant partitioning of the first
// inter-frame to seed the Performance Characterization) and the iterative
// phase (per-frame Load Balancing from the measured model, collaborative
// execution through the Video Coding Manager, and model update), while
// accounting the real scheduling overhead the paper bounds at 2 ms.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/h264/rd"
	"feves/internal/lp"
	"feves/internal/sched"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

// Options configures a framework instance.
type Options struct {
	Platform *device.Platform
	// Codec holds the sequence parameters. In TimingOnly mode only the
	// geometry, search range and RF count matter.
	Codec codec.Config
	// Mode selects functional encoding or timing-only simulation.
	Mode vcm.Mode
	// Balancer defaults to the paper's LP balancer.
	Balancer sched.Balancer
	// Alpha is the EWMA weight of the Performance Characterization
	// (default 0.8; 1 reproduces the paper's last-measurement behaviour).
	Alpha float64
	// Telemetry is the observability sink (metrics, JSONL events, Perfetto
	// spans, balancer audit). nil disables every hook at the cost of one
	// pointer check per frame, keeping timing reproductions unaffected.
	Telemetry *telemetry.Telemetry
	// CheckSchedules validates every executed frame with the internal/check
	// invariant checker (distribution constraints, data-access consistency,
	// τ1/τ2/τtot ordering); a violation fails the frame. Zero cost when off.
	CheckSchedules bool
	// CheckObserve makes CheckSchedules non-fatal: violations are counted
	// into the Telemetry sink (feves_check_violations_total) and the frame
	// proceeds — the serving subsystem's mode, where one tenant's broken
	// schedule must not take the session down.
	CheckObserve bool
	// DeadlineSlack arms fault detection and autonomous failover: each
	// inter-frame must finish within the LP's predicted τ1/τ2/τtot times
	// this factor (plus a stall safety net for frames without
	// predictions). A blown budget marks the blamed device, the health
	// tracker degrades/excludes it, and the frame is retried bit-exactly
	// on the reduced topology. Zero (the default) disables enforcement
	// entirely — the frame loop is byte-identical to the slack-free code.
	DeadlineSlack float64
	// MaxFrameRetries bounds the failover retries of one frame (default
	// DefaultMaxFrameRetries). Ignored while DeadlineSlack is zero.
	MaxFrameRetries int
	// OnDeviceExcluded, when non-nil, is invoked synchronously (between
	// retry attempts, on the encoding goroutine) each time the health
	// tracker excludes a device, with the framework's device index — the
	// device pool's re-partition hook.
	OnDeviceExcluded func(dev int)
	// FrameParallel enables two-frames-in-flight encoding over the dual
	// reference chains (requires Codec.Chains = 2): EncodePair schedules
	// two consecutive inter frames jointly, interleaving their kernels and
	// transfers so one frame's work fills the other's synchronization
	// stalls. The bitstream stays byte-identical to the serial two-chain
	// encode.
	FrameParallel bool
	// FrameBase offsets the display frame numbering: the first frame fed to
	// EncodeNext runs as frame FrameBase instead of 0. Intra cadence
	// (FrameBase must open a GOP), chain parity, jitter identity, telemetry
	// and Result.FrameIndex all use the global index, so a GOP shard of a
	// longer stream is indistinguishable — in schedule and in bitstream —
	// from the same frames of a whole-stream encode. Non-zero values
	// require Codec.IntraPeriod > 0 with FrameBase a multiple of it.
	FrameBase int
}

// stallTaskBudget is the per-kernel simulated-seconds safety net used when
// no LP prediction exists (initialization frames, non-LP balancers): far
// above any honest kernel on the paper's platforms and parameter sweeps,
// far below the ×1e9 stall factor of a dead device. Sized against the
// calibrated profiles (device.DefaultCalibration), whose kernels run up
// to 5.5× faster than the Fig. 6 base anchors: the stall signature of a
// small row assignment shrinks proportionally, so the budget sits at 2e4
// rather than the pre-calibration 1e5.
const stallTaskBudget = 2e4

// DefaultMaxFrameRetries is the failover bound a zero MaxFrameRetries
// selects: first strike, exclusion strike, and the run on the reduced
// topology.
const DefaultMaxFrameRetries = 3

// Result reports one processed frame.
type Result struct {
	FrameIndex int // 0-based display index
	// Attempt is the successful attempt index (0 = first try; >0 when the
	// failover path re-ran the frame on a reduced topology).
	Attempt int
	Intra   bool
	// Timing is the simulated inter-loop execution (zero for intra frames,
	// which the paper excludes from the balanced inter-loop).
	Timing vcm.FrameTiming
	// Distribution is the row assignment used. Its slices alias storage the
	// balancer reuses across frames; they stay valid until the second
	// following EncodeNext call. Callers keeping them longer must copy.
	Distribution sched.Distribution
	// SchedOverhead is the real wall-clock cost of the balancing decision
	// (the paper's <2 ms claim, experiment E6).
	SchedOverhead time.Duration
	// Stats is the functional coding outcome (zero in TimingOnly mode).
	Stats rd.FrameStats
}

// IsIntra reports whether the frame was coded intra: scheduled so (first
// frame, IDR period) or switched by the encoder's scene-cut detector
// mid-pipeline.
func (r Result) IsIntra() bool { return r.Intra || r.Stats.Intra }

// FPS is the simulated throughput the frame ran at: two frames per pair
// makespan when it was scheduled jointly with a partner, one per τtot
// otherwise, 0 for intra frames (which run outside the balanced loop).
func (r Result) FPS() float64 {
	switch {
	case r.Timing.PairMakespan > 0:
		return 2 / r.Timing.PairMakespan
	case r.Timing.Tot > 0:
		return 1 / r.Timing.Tot
	}
	return 0
}

// Framework is the paper's Framework Control: it owns the performance
// model, the balancer and the Video Coding Manager, and processes frames
// in sequence.
type Framework struct {
	opts     Options
	topo     sched.Topology
	pm       *sched.PerfModel
	mgr      *vcm.Manager
	bal      sched.Balancer
	enc      *codec.Encoder
	healthMu sync.Mutex    // guards the health pointer against debug readers
	health   *sched.Health // nil unless DeadlineSlack > 0
	// prev[c] is the σʳ carry of the most recent frame on reference chain
	// c (framework-owned copies): the deferred SF rows belong to that
	// chain's sub-frame structure, so the next frame on the *same* chain
	// uploads them, not the next frame in display order. Single-chain
	// streams only ever touch prev[0].
	prev      [2][]int
	frame     int          // frames processed (display order)
	lastIntra int          // display index of the most recent intra frame
	retries   atomic.Int64 // frames re-run by the failover path (read by debug endpoints)
	lastLP    lp.Stats     // solver counters at the last frame-end emit

	// Per-frame audit scratch, reused so the telemetry path adds no
	// steady-state allocations to the frame loop. lpDelta is the emitted
	// frame's share of the solver counters; its FrameRecord.LP points here.
	lpDelta    telemetry.LPSolveStats
	snapBefore sched.ModelSnapshot
	snapAfter  sched.ModelSnapshot
	drifts     []sched.KDrift
	dd         []telemetry.DeviceDrift
}

// New builds a framework for the given options — Algorithm 1 lines 1–2:
// platform detection and configuration of the functional blocks.
func New(opts Options) (*Framework, error) {
	if opts.Platform == nil {
		return nil, fmt.Errorf("core: no platform given")
	}
	if err := opts.Platform.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Codec.Validate(); err != nil {
		return nil, err
	}
	if opts.Balancer == nil {
		opts.Balancer = &sched.LPBalancer{}
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.8
	}
	topo := sched.Topology{NumGPU: opts.Platform.NumGPUs(), Cores: opts.Platform.Cores}
	if opts.MaxFrameRetries <= 0 {
		opts.MaxFrameRetries = DefaultMaxFrameRetries
	}
	if opts.FrameParallel && opts.Codec.Chains != 2 {
		return nil, fmt.Errorf("core: FrameParallel needs Codec.Chains = 2, have %d", opts.Codec.Chains)
	}
	if opts.FrameBase != 0 {
		if opts.FrameBase < 0 || opts.Codec.IntraPeriod <= 0 || opts.FrameBase%opts.Codec.IntraPeriod != 0 {
			return nil, fmt.Errorf("core: FrameBase %d must be a non-negative multiple of a non-zero IntraPeriod (have %d)",
				opts.FrameBase, opts.Codec.IntraPeriod)
		}
	}
	f := &Framework{
		opts:      opts,
		topo:      topo,
		pm:        sched.NewPerfModel(topo.NumDevices(), opts.Alpha),
		bal:       opts.Balancer,
		frame:     opts.FrameBase,
		lastIntra: opts.FrameBase,
	}
	for c := range f.prev {
		f.prev[c] = make([]int, topo.NumDevices())
	}
	if opts.DeadlineSlack > 0 {
		f.health = sched.NewHealth(topo.NumDevices())
	}
	f.mgr = &vcm.Manager{Platform: opts.Platform, Mode: opts.Mode, Telemetry: opts.Telemetry,
		Check: opts.CheckSchedules, CheckObserve: opts.CheckObserve}
	if opts.Mode == vcm.Functional {
		enc, err := codec.NewEncoder(opts.Codec)
		if err != nil {
			return nil, err
		}
		f.enc = enc
		f.mgr.Enc = enc
	}
	return f, nil
}

// Topology returns the scheduled device topology.
func (f *Framework) Topology() sched.Topology { return f.topo }

// SolverStats returns the cumulative LP solver counters of the
// framework's balancer — warm/cold solves, pivots — for the benchmark
// harness and telemetry. Non-LP balancers report zero stats.
func (f *Framework) SolverStats() lp.Stats {
	if b, ok := f.bal.(*sched.LPBalancer); ok {
		return b.SolverStats()
	}
	return lp.Stats{}
}

// SetPlatform re-targets the framework onto a different device set
// between frames — the multi-tenant pool's lease-change path. The
// functional encoder (DPB, bitstream, rate-control state) carries over
// untouched, so coding continuity and bit-exactness are preserved; the
// Performance Characterization is rebuilt for the new device count and
// Algorithm 1's initialization phase re-runs (the next inter-frame is
// partitioned equidistantly until the fresh model is characterized),
// exactly as the paper bootstraps an unknown platform.
func (f *Framework) SetPlatform(pl *device.Platform) error {
	if pl == nil {
		return fmt.Errorf("core: no platform given")
	}
	if err := pl.Validate(); err != nil {
		return err
	}
	f.opts.Platform = pl
	f.topo = sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores}
	f.pm = sched.NewPerfModel(f.topo.NumDevices(), f.opts.Alpha)
	for c := range f.prev {
		f.prev[c] = make([]int, f.topo.NumDevices())
	}
	f.mgr.Platform = pl
	f.mgr.Down = nil
	if f.opts.DeadlineSlack > 0 {
		// The new lease consists of devices the pool believes are up;
		// health restarts clean for the new numbering.
		f.healthMu.Lock()
		f.health = sched.NewHealth(f.topo.NumDevices())
		f.healthMu.Unlock()
	}
	return nil
}

// Health exposes the failover health tracker (nil while DeadlineSlack is
// zero). Safe for concurrent reads; the serving layer surfaces it in
// status output.
func (f *Framework) Health() *sched.Health {
	f.healthMu.Lock()
	defer f.healthMu.Unlock()
	return f.health
}

// HealthStates names each device's current health state ("healthy",
// "degraded", "excluded"), or nil while failover is unarmed. Safe to call
// from the debug endpoints while the session goroutine encodes.
func (f *Framework) HealthStates() []string {
	h := f.Health()
	if h == nil {
		return nil
	}
	out := make([]string, h.NumDevices())
	for i := range out {
		out[i] = h.State(i).String()
	}
	return out
}

// FrameRetries returns the number of failover re-runs so far. Safe to
// call from the debug endpoints while the session goroutine encodes.
func (f *Framework) FrameRetries() int { return int(f.retries.Load()) }

// Model exposes the live Performance Characterization (read-mostly; used
// by experiments and traces).
func (f *Framework) Model() *sched.PerfModel { return f.pm }

// Encoder returns the functional encoder (nil in TimingOnly mode).
func (f *Framework) Encoder() *codec.Encoder { return f.enc }

// FramesProcessed returns the number of frames consumed so far.
func (f *Framework) FramesProcessed() int { return f.frame }

// chains returns the configured reference-chain count (1 or 2).
func (f *Framework) chains() int {
	if f.opts.Codec.Chains <= 1 {
		return 1
	}
	return f.opts.Codec.Chains
}

// interOffset is the 0-based count of inter frames between the last intra
// frame and display index interIdx — the encoder's round-robin counter.
func (f *Framework) interOffset(interIdx int) int {
	j := interIdx - f.lastIntra - 1
	if j < 0 {
		j = 0
	}
	return j
}

// chainOf returns the reference chain the frame at display index interIdx
// predicts from, mirroring the encoder's alternating assignment.
func (f *Framework) chainOf(interIdx int) int {
	return f.interOffset(interIdx) % f.chains()
}

// Workload is the standing per-frame demand of a coding configuration —
// frame geometry in macroblocks, search area, reference count with every
// reference usable. The pool partitioner and the fleet router weigh
// sessions by it; the framework ramps UsableRF per frame.
func Workload(cc codec.Config) device.Workload {
	return device.Workload{
		MBW:      cc.Width / h264.MBSize,
		MBH:      cc.Height / h264.MBSize,
		SA:       2 * cc.SearchRange,
		NumRF:    cc.NumRF,
		UsableRF: cc.NumRF,
	}
}

// workload derives the frame's workload parameters; the usable reference
// count ramps up over the first NumRF inter-frames *on the frame's chain*
// after each intra frame (Fig. 7(b)): with two chains the odd and even
// frames ramp their DPBs independently, each half as fast in display
// order.
func (f *Framework) workload(interIdx int) device.Workload {
	w := Workload(f.opts.Codec)
	if usable := 1 + f.interOffset(interIdx)/f.chains(); usable < w.UsableRF {
		w.UsableRF = usable
	}
	return w
}

// isIntra reports whether display index i opens a GOP: the first frame of
// the sequence or an IDR refresh point.
func (f *Framework) isIntra(i int) bool {
	return i == 0 || (f.opts.Codec.IntraPeriod > 0 && i%f.opts.Codec.IntraPeriod == 0)
}

// EncodeNext processes the next frame of the sequence. In Functional mode
// cf must be the frame to encode; in TimingOnly mode cf is ignored (may be
// nil). The first frame is intra coded outside the balanced inter-loop;
// every subsequent frame runs Algorithm 1's iterative phase.
func (f *Framework) EncodeNext(cf *h264.Frame) (Result, error) {
	idx := f.frame
	if !f.isIntra(idx) {
		rs, _, err := f.encodeWindow(cf)
		return rs[0], err
	}
	tel := f.opts.Telemetry
	tel.FrameStart(idx, true)
	res := Result{FrameIndex: idx, Intra: true}
	if f.opts.Mode == vcm.Functional {
		stats, err := f.enc.EncodeIntraFrame(cf)
		if err != nil {
			return Result{}, err
		}
		res.Stats = stats
	}
	f.lastIntra = idx
	f.frame++
	if idx > 0 {
		tel.Mark("idr", idx)
	}
	tel.FrameEnd(telemetry.FrameRecord{Frame: idx, Intra: true,
		Bits: res.Stats.Bits, PSNRY: res.Stats.PSNRY}, nil, 0)
	return res, nil
}

// EncodePair processes the next two frames of the sequence jointly when
// frame-parallel execution applies, falling back to a serial EncodeNext of
// cfA otherwise. The returned paired flag reports which happened: when
// false, only cfA was consumed (rb is zero) and the caller re-offers cfB
// as the next frame. A scene cut inside frame A also returns paired=false
// — frame A completed (as an IDR), frame B was aborted before any
// functional work and must be re-offered.
func (f *Framework) EncodePair(cfA, cfB *h264.Frame) (ra, rb Result, paired bool, err error) {
	if (cfB == nil && f.opts.Mode == vcm.Functional) || !f.pairable() {
		ra, err = f.EncodeNext(cfA)
		return ra, Result{}, false, err
	}
	rs, done, err := f.encodeWindow(cfA, cfB)
	return rs[0], rs[1], done == 2, err
}

// pairable reports whether the next two frames can run frame-parallel:
// both inter, the model characterized (the equidistant initialization
// frames run serially), and the two-chain codec configured.
func (f *Framework) pairable() bool {
	return f.opts.FrameParallel && f.chains() >= 2 && f.pm.Ready() &&
		!f.isIntra(f.frame) && !f.isIntra(f.frame+1)
}

// encodeWindow runs Algorithm 1's iterative phase on the next len(cfs)
// inter frames as one jointly scheduled window — one frame for the serial
// loop, two (on distinct reference chains) for the frame-parallel one —
// and returns the results of the frames that completed. Fewer than
// offered complete only when a frame scene-cut to an IDR inside R* with
// another behind it: that later frame never touched the encoder and the
// caller re-offers it.
func (f *Framework) encodeWindow(cfs ...*h264.Frame) (rs [2]Result, done int, err error) {
	n := len(cfs)
	base := f.frame
	tel := f.opts.Telemetry
	var ins [2]vcm.FrameInput
	for k := 0; k < n; k++ {
		tel.FrameStart(base+k, false)
		ins[k] = vcm.FrameInput{Frame: base + k, Chain: f.chainOf(base + k), W: f.workload(base + k), CF: cfs[k]}
	}
	// Load Balancing (lines 3 and 8): equidistant until the model is
	// characterized, LP afterwards; with failover armed the topology
	// carries the health tracker's exclusion mask and a blown deadline
	// re-enters the loop on the reduced topology. The decision cost
	// (accumulated over retries) is the framework's scheduling overhead.
	var (
		fts      []vcm.FrameTiming
		overhead time.Duration
		okTry    int // attempt index that finally succeeded
	)
	for attempt := 0; ; attempt++ {
		if f.health != nil {
			f.topo.Down = f.health.Down()
			f.mgr.Down = f.topo.Down
		}
		start := time.Now()
		// One balancing decision per frame, each against its own chain's
		// warm-start slots and σʳ carry. The balancer's output buffers are
		// double-buffered, so both distributions of a window of two stay
		// valid through the joint execution.
		for k := 0; k < n; k++ {
			in := &ins[k]
			in.PrevSigmaR = f.prev[in.Chain]
			if !f.pm.Ready() {
				// Initialization phase; pairable() keeps it to windows of one.
				in.D = sched.EquidistantExcluding(f.topo.NumDevices(), in.W.Rows(), firstUp(f.topo), f.topo.Down)
				continue
			}
			f.selectChain(in.Chain)
			if in.D, err = f.bal.Distribute(f.pm, f.topo, in.W, in.PrevSigmaR); err != nil {
				return rs, 0, err
			}
		}
		if n == 1 {
			ins[0].Deadline = f.deadline(ins[0].D, nil)
		} else {
			ins[0].Deadline = f.deadline(ins[0].D, &ins[1].D)
			ins[1].Deadline = f.deadline(ins[1].D, &ins[0].D)
		}
		overhead += time.Since(start)

		// Bracket the Video Coding Manager's EWMA feedback with model
		// snapshots so the audit can report the drift this window caused.
		if tel.Enabled() {
			f.pm.SnapshotInto(&f.snapBefore)
		}
		fts, err = f.mgr.EncodeFrames(f.pm, ins[:n]...)
		if err == nil || errors.Is(err, vcm.ErrPairSceneCut) {
			okTry = attempt
			break
		}
		var de *vcm.DeadlineError
		if f.health == nil || !errors.As(err, &de) || attempt+1 >= f.opts.MaxFrameRetries {
			if errors.As(err, &de) {
				// The deadline error is escaping to the caller — snapshot
				// the flight window while the evidence is still in the ring.
				tel.CaptureBundle("deadline_error", de.Frame, de.Error())
			}
			return rs, 0, err
		}
		// No functional kernel ran (the deadline trips on the simulated
		// timeline first), so the whole window replays bit-exactly once
		// the sick device is out of the schedule.
		f.retries.Add(1)
		tel.FrameRetry(de.Frame, attempt+1, de.Point, de.Blamed)
		for _, dev := range de.Blamed {
			f.reportMiss(de.Frame, dev, de.Point)
		}
	}
	if f.health != nil {
		// Devices that met their budgets this window work toward the
		// degraded → healthy recovery streak.
		for i := 0; i < f.topo.NumDevices(); i++ {
			if !f.topo.IsDown(i) {
				if from, to, changed := f.health.Clean(i); changed {
					tel.HealthTransition(base, i, from.String(), to.String(), "recovered")
				}
			}
		}
	}
	done = len(fts)
	f.frame = base + done
	for k, ft := range fts {
		d, chain := ins[k].D, ins[k].Chain
		// SigmaR aliases balancer-owned double-buffered storage; copy it
		// into the framework's own carry buffer so the chain's next frame
		// reads it safely.
		f.prev[chain] = append(f.prev[chain][:0], d.SigmaR...)
		if ft.Stats.Intra && f.chains() > 1 {
			// The encoder's scene-cut detector coded an IDR mid-pipeline,
			// flushing and reseeding every chain: mirror its counter reset so
			// the chain assignment and per-chain ramps stay in lockstep.
			f.lastIntra = ft.Frame
			f.resetSigmaCarry()
		}
		rs[k] = Result{FrameIndex: ft.Frame, Attempt: okTry, Timing: ft,
			Distribution: d, Stats: ft.Stats}
	}
	rs[0].SchedOverhead = overhead
	if tel.Enabled() {
		// The frames of a window share one simulated interval: only the last
		// completed one moves the sink's run clock on, by the window's
		// makespan (a window of one ran for its frame's τtot).
		makespan := rs[done-1].Timing.PairMakespan
		if makespan == 0 {
			makespan = rs[done-1].Timing.Tot
		}
		for k := 0; k < done; k++ {
			advance := 0.0
			if k == done-1 {
				advance = makespan
			}
			f.emitFrameTelemetry(tel, &rs[k], advance)
		}
	}
	return rs, done, nil
}

// selectChain points an LP balancer at one chain's warm-start and
// hysteresis slots; other balancers keep no per-chain state.
func (f *Framework) selectChain(chain int) {
	if b, ok := f.bal.(*sched.LPBalancer); ok {
		b.SelectChain(chain)
	}
}

// resetSigmaCarry zeroes every chain's σʳ carry — called when an IDR
// flushes the reference chains, making the deferred SF rows moot.
func (f *Framework) resetSigmaCarry() {
	for c := range f.prev {
		for i := range f.prev[c] {
			f.prev[c][i] = 0
		}
	}
}

// deadline derives one frame's budgets from the balancer's predicted
// timeline times the slack factor; the zero Deadline while failover is
// unarmed. A frame alone in its window arms all three sync points. With a
// partner only the total is armed — the LP's τ1/τ2 predictions assume a
// solo schedule and would misfire on the interleaved joint timeline — at
// the *pair's* serial upper bound (both frames' predicted τtot): an
// interleaved schedule that beats serial never trips it, a stalled device
// (×1e9) always does. Frames without predictions (the equidistant
// initialization, non-LP balancers) keep only the per-task stall net.
func (f *Framework) deadline(self sched.Distribution, partner *sched.Distribution) vcm.Deadline {
	s := f.opts.DeadlineSlack
	if s <= 0 {
		return vcm.Deadline{}
	}
	dl := vcm.Deadline{TaskBudget: stallTaskBudget}
	if partner == nil {
		if self.PredTot > 0 {
			dl.Tau1, dl.Tau2, dl.Tot = self.PredTau1*s, self.PredTau2*s, self.PredTot*s
		}
	} else if self.PredTot > 0 && partner.PredTot > 0 {
		dl.Tot = (self.PredTot + partner.PredTot) * s
	}
	return dl
}

// reportMiss feeds one blamed device into the health tracker and acts on
// the transition: telemetry, model quarantine, and the pool's exclusion
// hook.
func (f *Framework) reportMiss(frame, dev int, point string) {
	from, to, changed := f.health.Miss(dev)
	if !changed {
		return
	}
	f.opts.Telemetry.HealthTransition(frame, dev, from.String(), to.String(), point)
	if to == sched.Excluded {
		f.pm.Quarantine(dev)
		f.opts.Telemetry.CaptureBundle("device_excluded", frame,
			"device "+strconv.Itoa(dev)+" excluded after deadline misses at "+point)
		if f.opts.OnDeviceExcluded != nil {
			f.opts.OnDeviceExcluded(dev)
		}
	}
}

// firstUp returns the lowest schedulable device index.
func firstUp(topo sched.Topology) int {
	for i := 0; i < topo.NumDevices(); i++ {
		if !topo.IsDown(i) {
			return i
		}
	}
	return 0
}

// emitFrameTelemetry reports one completed inter frame to the sink — the
// only place a frame is reported from: the balancer audit pairing the
// predicted τtot with the measured one (for model-driven decisions), then
// the frame record with the executed spans attached. advance is how far the
// frame moves the sink's run clock on.
func (f *Framework) emitFrameTelemetry(tel *telemetry.Telemetry, r *Result, advance float64) {
	if r.Stats.Intra {
		// The encoder's scene-cut detector switched to intra mid-pipeline.
		tel.Mark("scene_cut", r.FrameIndex)
	}
	d, ft := &r.Distribution, &r.Timing
	if d.PredTot > 0 {
		// The sink serializes records synchronously, so the drift scratch
		// can be reused next frame.
		f.pm.SnapshotInto(&f.snapAfter)
		f.drifts = f.snapBefore.DriftInto(f.drifts, f.snapAfter)
		f.dd = f.dd[:0]
		for _, d := range f.drifts {
			f.dd = append(f.dd, telemetry.DeviceDrift{Device: d.Device, Module: d.Module.String(),
				Before: d.Before, After: d.After, Rel: d.Rel})
		}
		tel.Audit(telemetry.AuditRecord{
			Frame: r.FrameIndex, Balancer: f.bal.Name(),
			PredTot: d.PredTot, Measured: ft.Tot,
			Drift: f.dd,
		})
	}
	rec := telemetry.FrameRecord{
		Frame: r.FrameIndex, Attempt: r.Attempt, Chain: ft.Chain,
		Tau1: ft.Tau1, Tau2: ft.Tau2, Tot: ft.Tot, PairMakespan: ft.PairMakespan,
		PredTau1: d.PredTau1, PredTau2: d.PredTau2, PredTot: d.PredTot,
		SchedOverhead: r.SchedOverhead.Seconds(),
		RStarDev:      d.RStarDev,
		M:             d.M, L: d.L, S: d.S,
		Sigma: d.Sigma, SigmaR: d.SigmaR, DeltaM: d.DeltaM, DeltaL: d.DeltaL,
		ModME:  ft.ModuleTime[sched.ModME],
		ModINT: ft.ModuleTime[sched.ModINT],
		ModSME: ft.ModuleTime[sched.ModSME], ModRStar: ft.ModuleTime[sched.ModRStar],
		Bits: r.Stats.Bits, PSNRY: r.Stats.PSNRY,
	}
	// The per-frame LP work is the delta of the solver's cumulative
	// counters since the last emit (none for non-LP balancers).
	cur := f.SolverStats()
	f.lpDelta = telemetry.LPSolveStats{
		Solves:           cur.Solves - f.lastLP.Solves,
		WarmSolves:       cur.WarmSolves - f.lastLP.WarmSolves,
		ColdSolves:       cur.ColdSolves - f.lastLP.ColdSolves,
		WarmRejects:      cur.WarmRejects - f.lastLP.WarmRejects,
		Pivots:           cur.Pivots - f.lastLP.Pivots,
		DegeneratePivots: cur.DegeneratePivots - f.lastLP.DegeneratePivots,
		BlandPivots:      cur.BlandPivots - f.lastLP.BlandPivots,
	}
	f.lastLP = cur
	if f.lpDelta != (telemetry.LPSolveStats{}) {
		rec.LP = &f.lpDelta
	}
	tel.FrameEnd(rec, ft.Spans, advance)
}

// Bitstream returns the functional encoder's coded stream (nil in
// TimingOnly mode).
func (f *Framework) Bitstream() []byte {
	if f.enc == nil {
		return nil
	}
	return f.enc.Bitstream()
}
