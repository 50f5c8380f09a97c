// Package feves is the public API of the FEVES reproduction: an autonomous
// framework for collaborative H.264/AVC inter-loop video encoding on
// simulated heterogeneous multi-core CPU + multi-GPU platforms, after
// "FEVES: Framework for Efficient Parallel Video Encoding on Heterogeneous
// Systems" (Ilic, Momcilovic, Roma, Sousa — ICPP 2014).
//
// Two ways to use it:
//
//   - Encoder: feed YUV 4:2:0 frames and get a real bitstream plus
//     per-frame timing of the simulated collaborative schedule (Functional
//     mode). The encoding is bit-exact regardless of the platform the
//     work is balanced across.
//   - Simulate: run the framework in timing-only mode at any resolution
//     (e.g. the paper's 1080p) to reproduce the paper's experiments
//     cheaply; kernels are skipped, which is sound because full-search
//     motion estimation has content-independent cost.
//
// Platforms are built from calibrated device profiles (the paper's CPU_N,
// CPU_H, GPU_F, GPU_K) or custom ones; the per-frame load balancing,
// performance characterization, data-access management and synchronization
// structure all follow the paper's Algorithms 1 and 2.
package feves

import (
	"errors"
	"fmt"
	"io"
	"time"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264/codec"
	"feves/internal/h264/me"
	"feves/internal/platforms"
	"feves/internal/sched"
	"feves/internal/session"
	"feves/internal/vcm"
)

// Config holds the sequence-level coding parameters.
type Config struct {
	// Width and Height are the frame dimensions in pixels (multiples of 16).
	Width, Height int
	// SearchArea is the SA size in pixels as the paper quotes it: 32 means
	// a 32×32 search area (±16 pel displacement).
	SearchArea int
	// RefFrames is the number of reference frames (1–16).
	RefFrames int
	// IQP and PQP are the intra-/inter-frame quantization parameters; the
	// zero value selects the paper's {27, 28}.
	IQP, PQP int
	// Balancer selects the load-balancing strategy; zero value is the
	// paper's LP balancer.
	Balancer BalancerKind
	// BalancerHysteresis (LP balancer only) keeps the previous frame's
	// distribution unless the new solution improves predicted τtot by more
	// than this fraction, damping jitter-induced oscillation. 0 reproduces
	// the paper's per-frame re-optimization.
	BalancerHysteresis float64
	// Alpha is the EWMA weight of the performance characterization
	// (0 → default 0.8).
	Alpha float64
	// ArithmeticCoding switches the residual entropy backend from the
	// Baseline-profile CAVLC-style VLC to this reproduction's CABAC-style
	// adaptive binary arithmetic coder (typically a few percent smaller
	// streams at identical reconstruction).
	ArithmeticCoding bool
	// IntraPeriod inserts an IDR refresh every IntraPeriod frames (0 =
	// the paper's IPPP structure with a single leading intra frame).
	IntraPeriod int
	// FastME selects a fast motion-search algorithm instead of the
	// paper's full search: "" or "full-search" (default), "three-step",
	// "diamond". Fast ME makes the workload content-dependent, which is
	// exactly what the paper's FSBM choice avoids; provided for ablations.
	FastME string
	// TargetBitsPerFrame enables reactive rate control on the inter-frame
	// QP (0 = the paper's fixed-QP operation).
	TargetBitsPerFrame int
	// Checksum appends a CRC-32 of every reconstructed frame so decoders
	// detect corruption and encoder/decoder drift.
	Checksum bool
	// SceneCutThreshold enables adaptive IDR insertion when inter
	// prediction fails frame-wide (mean motion-compensated cost per pixel
	// above the threshold). 0 disables; typical values 5–15.
	SceneCutThreshold float64
	// Slices splits each frame into independently decodable horizontal
	// slices (prediction isolation; separate arithmetic chunks). 0/1 =
	// whole-frame coding.
	Slices int
	// Observer, when non-nil, receives the framework's telemetry: metrics,
	// the JSONL event stream with per-frame balancer audits, and the
	// whole-run Perfetto timeline. nil (the default) disables every hook.
	Observer *Observer
	// SessionLabel names this run's tenant lane when several sessions share
	// one Observer: every event, metric sample and trace slice carries it
	// as the session label, and the Perfetto timeline shows one process
	// lane per label. Empty leaves a standalone run unscoped; pool sessions
	// default to "session-<lease id>".
	SessionLabel string
	// CheckSchedules runs the schedule invariant checker on every executed
	// inter-frame: Algorithm 2's distribution constraints (row sums,
	// non-negativity, placement rules), the data-access consistency of the
	// Δ/σ transfer vectors, and the τ1/τ2/τtot dependency ordering of the
	// executed timeline. A violation fails the frame with a detailed error
	// listing every broken invariant. Off (the default) costs nothing.
	CheckSchedules bool
	// DeadlineSlack arms autonomous failover: every inter-frame must meet
	// per-sync-point deadlines of the LP-predicted timeline times this
	// factor (e.g. 3 = three times the predicted τ1/τ2/τtot). A blown
	// deadline degrades the blamed device, a repeat excludes it — the
	// balancer then re-solves without it, its model samples are
	// quarantined, and the frame is retried bit-exactly on the reduced
	// platform. 0 (the default) disables enforcement entirely; schedules
	// are then byte-identical to earlier releases. Exclusion events are
	// visible through the Observer (feves_device_excluded_total).
	DeadlineSlack float64
	// MaxFrameRetries bounds the failover attempts per frame (0 → default
	// 3: first strike, exclusion strike, reduced-platform re-run).
	MaxFrameRetries int
	// FrameParallel keeps two inter frames in flight at once over dual
	// reference chains: odd inter frames predict from the odd chain, even
	// from the even chain, so consecutive frames have no data dependency
	// and their schedules interleave on the shared devices. The bitstream
	// is bit-exact with a serial two-chain encode of the same sequence
	// (and therefore differs from single-chain output — each chain's
	// reference list ramps at half rate). Intra frames and the
	// initialization frames still run serially.
	FrameParallel bool
}

// BalancerKind selects a load-balancing strategy.
type BalancerKind int

const (
	// BalancerLP is the paper's Algorithm 2 (default).
	BalancerLP BalancerKind = iota
	// BalancerEquidistant is the static even split of multi-GPU prior work.
	BalancerEquidistant
	// BalancerProportional splits rows by observed device speed without
	// modelling transfers or overlap.
	BalancerProportional
	// BalancerLPNoReuse is the LP balancer with the Data Access
	// Management's reuse optimization disabled (every accelerator fetches
	// its full SME inputs) — the A2 data-reuse ablation baseline.
	BalancerLPNoReuse
	// BalancerMEOffload reproduces the single-module-offload prior work of
	// the paper's §II ([5], [6]): ME on one GPU, everything else on the
	// CPU cores. Requires a platform with at least one GPU and one core.
	BalancerMEOffload
)

func (b BalancerKind) build(hysteresis float64) sched.Balancer {
	switch b {
	case BalancerEquidistant:
		return sched.EquidistantBalancer{}
	case BalancerProportional:
		return sched.ProportionalBalancer{}
	case BalancerLPNoReuse:
		return &sched.LPBalancer{NoReuse: true, Hysteresis: hysteresis}
	case BalancerMEOffload:
		return sched.MEOffloadBalancer{}
	default:
		return &sched.LPBalancer{Hysteresis: hysteresis}
	}
}

func (c Config) withDefaults() Config {
	session.PaperDefaults(&c.SearchArea, &c.RefFrames, &c.IQP, &c.PQP)
	return c
}

func (c Config) codecConfig() (codec.Config, error) {
	mode := codec.EntropyVLC
	if c.ArithmeticCoding {
		mode = codec.EntropyArith
	}
	chains := 1
	if c.FrameParallel {
		chains = 2
	}
	var algo me.Algorithm
	switch c.FastME {
	case "", "full-search":
		algo = me.FullSearch
	case "three-step":
		algo = me.ThreeStep
	case "diamond":
		algo = me.Diamond
	default:
		return codec.Config{}, fmt.Errorf("feves: unknown ME algorithm %q", c.FastME)
	}
	return codec.Config{
		Width: c.Width, Height: c.Height,
		SearchRange: c.SearchArea / 2,
		NumRF:       c.RefFrames,
		IQP:         c.IQP, PQP: c.PQP,
		Entropy:            mode,
		IntraPeriod:        c.IntraPeriod,
		MEAlgo:             algo,
		TargetBitsPerFrame: c.TargetBitsPerFrame,
		Checksum:           c.Checksum,
		SceneCutThreshold:  c.SceneCutThreshold,
		Slices:             c.Slices,
		Chains:             chains,
	}, nil
}

// options assembles the framework options every public surface hands the
// session driver, the coding defaults applied; the caller supplies the
// platform or the lease.
func (c Config) options(mode vcm.Mode) (core.Options, error) {
	cc, err := c.withDefaults().codecConfig()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Codec:           cc,
		Mode:            mode,
		Balancer:        c.Balancer.build(c.BalancerHysteresis),
		Alpha:           c.Alpha,
		Telemetry:       c.Observer.Sink().ForSession(c.SessionLabel),
		CheckSchedules:  c.CheckSchedules,
		DeadlineSlack:   c.DeadlineSlack,
		MaxFrameRetries: c.MaxFrameRetries,
		FrameParallel:   c.FrameParallel,
	}, nil
}

// standalone starts a session that owns the whole platform for good.
func (c Config) standalone(mode vcm.Mode, pl *Platform) (*session.Driver, error) {
	opts, err := c.options(mode)
	if err != nil {
		return nil, err
	}
	opts.Platform = pl.inner
	return session.New(opts, nil, session.Hooks{})
}

// Platform is a heterogeneous system description.
type Platform struct {
	inner *device.Platform
}

// Name returns the platform's label.
func (p *Platform) Name() string { return p.inner.Name }

// Devices returns the device names in scheduling order (GPUs first).
func (p *Platform) Devices() []string { return p.inner.DeviceNames() }

// Perturb installs a load-perturbation schedule: factor(frame, device) > 1
// slows the device's kernels for that inter-frame (Fig. 7's non-dedicated
// system events). A nil function removes perturbations.
func (p *Platform) Perturb(factor func(frame, deviceIndex int) float64) {
	p.inner.Perturb = factor
}

// InjectFaults installs a deterministic fault schedule from a spec string
// (see the fault-spec grammar: "die:DEV@F", "stall:DEV@F[+K]",
// "slow:DEV@FxR[+K]", "chaos:SEEDxRATE", ";"-separated). Faults replay
// identically for a given spec and platform seed. An empty spec removes
// injection. Pair with Config.DeadlineSlack to exercise the failover
// path; without it, faults slow frames down but nothing is excluded.
func (p *Platform) InjectFaults(spec string) error {
	if spec == "" {
		p.inner.Faults = nil
		return nil
	}
	fp, err := device.ParseFaults(spec, p.inner)
	if err != nil {
		return err
	}
	p.inner.Faults = fp
	return nil
}

// The paper's platforms.

// SysNF is a quad-core Nehalem CPU plus one Fermi GPU.
func SysNF() *Platform { return &Platform{device.SysNF()} }

// SysNFF is a quad-core Nehalem CPU plus two Fermi GPUs.
func SysNFF() *Platform { return &Platform{device.SysNFF()} }

// SysHK is a quad-core Haswell CPU plus one Kepler GPU.
func SysHK() *Platform { return &Platform{device.SysHK()} }

// SysNFK is a quad-core Nehalem CPU plus one Fermi and one Kepler GPU —
// the serving experiments' pool platform (six devices: two fast GPUs to
// lease out plus four cores to split among tenants).
func SysNFK() *Platform { return registered("sysnfk") }

// LookupPlatform returns a fresh instance of a platform by the
// case-insensitive name the command-line tools know it by.
func LookupPlatform(name string) (*Platform, error) {
	pl, err := platforms.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &Platform{pl}, nil
}

// registered builds a platform this file knows the registry holds.
func registered(name string) *Platform {
	pl, err := LookupPlatform(name)
	if err != nil {
		panic(err) // only a name mistyped above can get here
	}
	return pl
}

// CPUNehalem is the quad-core CPU_N baseline.
func CPUNehalem() *Platform { return registered("cpun") }

// CPUHaswell is the quad-core CPU_H baseline.
func CPUHaswell() *Platform { return registered("cpuh") }

// GPUFermi is the single-GPU GPU_F baseline.
func GPUFermi() *Platform { return registered("gpuf") }

// GPUKepler is the single-GPU GPU_K baseline.
func GPUKepler() *Platform { return registered("gpuk") }

// GPUTesla is a Tesla-generation single-GPU platform — the oldest
// architecture generation the paper's module library targets.
func GPUTesla() *Platform { return registered("gput") }

// PaperAnchored returns a copy of the platform with the kernel
// calibration undone on every device, restoring the Fig. 6 base profiles
// the paper's published rates were anchored to. The regular constructors
// model the current (restructured, faster) kernels; paper-figure
// reproductions use this to compare against the published absolute
// numbers.
func (p *Platform) PaperAnchored() *Platform {
	return &Platform{p.inner.Uncalibrated(device.DefaultCalibration())}
}

// CustomDualCopySysHK is SysHK with the Kepler GPU given two copy engines,
// so host→device and device→host transfers overlap (the §III-B dual-copy
// configuration; used by the A2 ablation).
func CustomDualCopySysHK() (*Platform, error) {
	pl := &device.Platform{
		Name:    "SysHK-2ce",
		GPUs:    []device.Profile{device.GPUKepler().WithCopyEngines(2)},
		CPUCore: device.CPUHaswellCore(),
		Cores:   4,
		Seed:    1,
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &Platform{pl}, nil
}

// CustomPlatform assembles a platform from scaled copies of the reference
// devices: gpuSpeed scales GPU_F (2 ≈ twice as fast) per listed GPU, and
// cores CPU cores scaled from CPU_N by cpuSpeed. Use it to model machines
// the paper did not test.
func CustomPlatform(name string, gpuSpeeds []float64, cores int, cpuSpeed float64) (*Platform, error) {
	pl := &device.Platform{Name: name, Seed: 1}
	for i, s := range gpuSpeeds {
		if s <= 0 {
			return nil, fmt.Errorf("feves: GPU speed %v must be positive", s)
		}
		pl.GPUs = append(pl.GPUs, device.GPUFermi().Scaled(1/s, fmt.Sprintf("%s-gpu%d", name, i)))
	}
	if cores > 0 {
		if cpuSpeed <= 0 {
			return nil, fmt.Errorf("feves: CPU speed %v must be positive", cpuSpeed)
		}
		pl.CPUCore = device.CPUNehalemCore().Scaled(1/cpuSpeed, name+"-core")
		pl.Cores = cores
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return &Platform{pl}, nil
}

// FrameReport is the outcome of one frame.
type FrameReport struct {
	Frame int
	Intra bool
	// Attempt is the successful failover attempt index (0 = first try).
	Attempt int
	// Chain is the reference chain the frame predicted from (always 0
	// without FrameParallel).
	Chain int
	// PairSeconds is the simulated makespan of the two-frame group this
	// frame ran in (0 when the frame ran serially): frame-parallel
	// throughput is 2 frames per PairSeconds, which is what FPS reports
	// for paired frames.
	PairSeconds float64
	// Seconds is the simulated inter-loop time (τtot); 0 for intra frames.
	Seconds float64
	// Tau1 and Tau2 are the simulated synchronization points.
	Tau1, Tau2 float64
	// FPS is 1/Seconds.
	FPS float64
	// SchedOverhead is the real wall-clock cost of the balancing decision.
	SchedOverhead time.Duration
	// MERows etc. report the row distribution per device.
	MERows, INTRows, SMERows []int
	// RStarDevice is the index of the device that ran MC+TQ+TQ⁻¹+DBL.
	RStarDevice int
	// PredictedSeconds is the LP's τtot prediction for this frame (0 for
	// non-LP balancers and the equidistant initialization frame): the gap
	// to Seconds measures the performance model's accuracy.
	PredictedSeconds float64
	// Bits and PSNRY are the functional coding results (0 in simulation).
	Bits  int
	PSNRY float64
	// MESeconds..RStarSeconds are the summed device-time of each module
	// group during this frame (the §II module-share breakdown).
	MESeconds, INTSeconds, SMESeconds, RStarSeconds float64
}

func report(r core.Result) FrameReport {
	return FrameReport{
		Frame:         r.FrameIndex,
		Intra:         r.IsIntra(),
		Attempt:       r.Attempt,
		Chain:         r.Timing.Chain,
		PairSeconds:   r.Timing.PairMakespan,
		Seconds:       r.Timing.Tot,
		Tau1:          r.Timing.Tau1,
		Tau2:          r.Timing.Tau2,
		FPS:           r.FPS(),
		SchedOverhead: r.SchedOverhead,
		// The distribution slices alias balancer-owned storage that is
		// recycled a frame later; reports are long-lived API values, so
		// copy them.
		MERows:           append([]int(nil), r.Distribution.M...),
		INTRows:          append([]int(nil), r.Distribution.L...),
		SMERows:          append([]int(nil), r.Distribution.S...),
		RStarDevice:      r.Distribution.RStarDev,
		PredictedSeconds: r.Distribution.PredTot,
		Bits:             r.Stats.Bits,
		PSNRY:            r.Stats.PSNRY,
		MESeconds:        r.Timing.ModuleTime[sched.ModME],
		INTSeconds:       r.Timing.ModuleTime[sched.ModINT],
		SMESeconds:       r.Timing.ModuleTime[sched.ModSME],
		RStarSeconds:     r.Timing.ModuleTime[sched.ModRStar],
	}
}

// encoding is the functional surface of a session: what an Encoder and a
// pool encoder session both are.
type encoding struct{ drv *session.Driver }

// Encoder encodes a real video sequence collaboratively (Functional mode).
type Encoder struct{ encoding }

// NewEncoder creates a functional encoder on the given platform.
func NewEncoder(cfg Config, pl *Platform) (*Encoder, error) {
	drv, err := cfg.standalone(vcm.Functional, pl)
	if err != nil {
		return nil, err
	}
	return &Encoder{encoding{drv}}, nil
}

// EncodeYUV encodes the next frame given as packed planar I420 bytes
// (Y, Cb, Cr) of the configured dimensions.
func (e encoding) EncodeYUV(yuv []byte) (FrameReport, error) {
	rs, err := e.drv.Encode(yuv, nil)
	if err != nil {
		return FrameReport{}, err
	}
	return report(rs[0]), nil
}

// EncodeYUVPair offers the next two frames for joint frame-parallel
// encoding. It returns one report per frame actually consumed: two when
// the frames ran as a pair, one when the framework fell back to serial
// encoding of the first frame (frame-parallel off, an intra boundary, the
// model still initializing, or a scene cut inside the pair) — the caller
// then re-offers the second frame's bytes, or uses EncodeSequence, which
// does so itself. yuvB may be nil at end of stream, which encodes yuvA
// serially. A pool session absorbs lease changes at pair boundaries, so
// both frames of a pair run on the same device subset.
func (e encoding) EncodeYUVPair(yuvA, yuvB []byte) ([]FrameReport, error) {
	rs, err := e.drv.Encode(yuvA, yuvB)
	if err != nil {
		return nil, err
	}
	out := make([]FrameReport, len(rs))
	for i, r := range rs {
		out[i] = report(r)
	}
	return out, nil
}

// EncodeSequence encodes a whole sequence: next yields each frame's packed
// I420 bytes in display order and io.EOF after the last (any other error
// ends the run with it), each receives every frame's report in display
// order. With Config.FrameParallel frames run in pairs wherever the
// framework can pair them.
func (e encoding) EncodeSequence(next func() ([]byte, error), each func(FrameReport)) error {
	return e.drv.Run(next, func(r core.Result) { each(report(r)) })
}

// Bitstream returns the coded stream so far.
func (e encoding) Bitstream() []byte { return e.drv.Framework().Bitstream() }

// Verify decodes a bitstream produced by an Encoder and returns the number
// of frames it contains, erroring on any corruption — the end-to-end check
// that collaborative encoding preserved correctness.
func Verify(stream []byte) (frames int, err error) {
	frames, _, err = decodeAll(stream, false)
	return frames, err
}

// VerifyConcealing decodes a (possibly damaged) sliced arithmetic stream
// with error concealment: corrupt slice chunks degrade only their own rows
// instead of failing the stream. It returns the frame count and the number
// of slices that had to be concealed.
func VerifyConcealing(stream []byte) (frames, concealedSlices int, err error) {
	return decodeAll(stream, true)
}

func decodeAll(stream []byte, conceal bool) (frames, concealed int, err error) {
	dec, err := codec.NewDecoder(stream)
	if err != nil {
		return 0, 0, err
	}
	dec.Conceal = conceal
	for {
		_, err := dec.DecodeFrame()
		if errors.Is(err, io.EOF) {
			return frames, dec.ConcealedSlices(), nil
		}
		if err != nil {
			return frames, dec.ConcealedSlices(), err
		}
		frames++
	}
}

// simulating is the timing-only surface of a session: what a Simulation
// and a pool simulation session both are.
type simulating struct{ drv *session.Driver }

// Simulation runs the framework in timing-only mode.
type Simulation struct{ simulating }

// NewSimulation creates a timing-only framework, typically at 1080p, to
// reproduce the paper's performance experiments.
func NewSimulation(cfg Config, pl *Platform) (*Simulation, error) {
	drv, err := cfg.standalone(vcm.TimingOnly, pl)
	if err != nil {
		return nil, err
	}
	return &Simulation{simulating{drv}}, nil
}

// Step simulates the next frame. With Config.FrameParallel the framework
// advances two frames per joint schedule; Step still returns one report
// per call, the pair's second report coming from the next call.
func (s simulating) Step() (FrameReport, error) {
	r, err := s.drv.Step()
	if err != nil {
		return FrameReport{}, err
	}
	return report(r), nil
}

// Run simulates n frames (including the initial intra frame) and returns
// their reports.
func (s simulating) Run(n int) ([]FrameReport, error) {
	out := make([]FrameReport, 0, n)
	for i := 0; i < n; i++ {
		r, err := s.Step()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// SteadyFPS simulates frames until the encoding rate stabilizes and
// returns the steady-state frames per second — the quantity plotted in
// Fig. 6 of the paper.
func SteadyFPS(cfg Config, pl *Platform) (float64, error) {
	sim, err := NewSimulation(cfg, pl)
	if err != nil {
		return 0, err
	}
	// One intra frame, then enough inter-frames to pass the RF ramp-up and
	// let the characterization converge. Frame-parallel runs ramp each
	// reference chain at half rate and only start pairing once the model
	// is characterized, so their window is twice as long.
	n := cfg.withDefaults().RefFrames + 8
	if cfg.FrameParallel {
		n = 2*cfg.withDefaults().RefFrames + 24
	}
	reports, err := sim.Run(n + 1)
	if err != nil {
		return 0, err
	}
	last := reports[len(reports)-1]
	return last.FPS, nil
}
