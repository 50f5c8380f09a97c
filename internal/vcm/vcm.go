// Package vcm implements the Video Coding Manager and Data Access
// Management blocks of the FEVES framework (§III-B of the paper): given a
// frame's workload distribution it builds the cross-device schedule of
// kernel invocations and host↔device transfers shown in Fig. 4/5 —
// including the single- vs dual-copy-engine overlap semantics, the
// data-reuse Δ transfers, and the deferred SF completion (σ/σʳ) — executes
// it on the discrete-event simulator, measures the synchronization points
// τ1, τ2 and τtot, and feeds the measured execution and transfer times back
// into the Performance Characterization.
//
// In Functional mode every kernel task's row range additionally enters
// the frame's codec.InterPlan, and the codec runs the plan for real once the
// schedule passed its deadlines, so the simulated schedule drives a
// genuine, bit-exact collaborative encode.
//
// One builder emits every schedule: EncodeFrames takes a window of frames
// and submits each frame's Fig. 4 task graph into its own slot. A serial
// frame is a window of one. Frame-parallel execution is a window of two
// frames on distinct reference chains: the chains make the frames
// data-independent (frame B predicts from chain B's references, none of
// which frame A produces), so the only coupling is resource contention —
// and that is what the joint schedule exploits: submission interleaves the
// frames phase by phase on every device, so frame B's wave-1 kernels fill
// the synchronization stalls of frame A's τ1/τ2 barriers instead of idling
// the accelerators.
//
// Correctness under the simulator's strict-FIFO resources does not depend
// on the submission order — task dependencies enforce the Fig. 4
// structure per frame — so any interleaving is bit-exact; the order only
// shapes the timeline. The functional plans run strictly in display
// order, which serializes the bitstream writes and keeps the output
// byte-identical to the serial two-chain encode.
package vcm

import (
	"errors"
	"fmt"

	"feves/internal/check"
	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/h264/rd"
	"feves/internal/sched"
	"feves/internal/simclock"
	"feves/internal/telemetry"
)

// Mode selects whether kernels actually compute.
type Mode int

const (
	// TimingOnly skips the functional kernels: only the virtual-time
	// schedule runs. Because FSBM workloads are content-independent (the
	// paper's own observation), timings are unaffected; this mode makes
	// 1080p parameter sweeps cheap.
	TimingOnly Mode = iota
	// Functional runs the real row-sliced encoder kernels inside the
	// simulated schedule, producing a real bitstream and reconstruction.
	Functional
)

// FrameTiming reports one inter-frame's simulated execution.
type FrameTiming struct {
	Frame    int // display index, as given in the FrameInput
	Tau1     float64
	Tau2     float64
	Tot      float64
	RStarDev int
	// Chain is the reference chain the frame predicted from.
	Chain int
	// PairMakespan is the joint makespan of the two-frame window this
	// frame was part of (zero for a window of one): the frame-parallel
	// throughput is 2 frames per PairMakespan seconds.
	PairMakespan float64
	// Module kernel-time totals summed over devices (seconds of device
	// time, not wall time), used by the module-share experiment.
	ModuleTime [4]float64
	// Stats holds the functional encoding result (zero in TimingOnly mode).
	Stats rd.FrameStats
	// Spans lists every executed task (kernels, transfers, barriers) for
	// Gantt-style inspection of the Fig. 4 schedule. The slice aliases
	// storage the Manager reuses: it is valid until the next EncodeFrames
	// call on the same Manager; copy to keep it longer.
	Spans []TaskSpan
}

// TaskSpan records one executed schedule task: the repository's one span
// type, which the checker, the trace ring and the flight recorder take as is.
type TaskSpan = telemetry.Span

// FPS returns the frame rate implied by the total inter-loop time.
func (t FrameTiming) FPS() float64 {
	if t.Tot <= 0 {
		return 0
	}
	return 1 / t.Tot
}

// ErrPairSceneCut reports that the first frame of a two-frame window
// scene-cut to an intra frame inside R*, flushing every reference chain:
// the second frame's references no longer exist, its functional plan
// did not run, and the caller must re-encode it serially. The first
// frame's FrameTiming (with its intra stats) is returned alongside.
var ErrPairSceneCut = errors.New("vcm: scene cut inside frame pair, second frame aborted")

// maxWindow is the largest number of frames one schedule can hold: one per
// reference chain the codec supports.
const maxWindow = 2

// FrameInput is one frame's share of a jointly scheduled window.
type FrameInput struct {
	Frame int // 0-based display index
	Chain int // reference chain the frame predicts from
	W     device.Workload
	D     sched.Distribution
	// PrevSigmaR is the σʳ carry of the previous frame on the same chain
	// (nil means none).
	PrevSigmaR []int
	CF         *h264.Frame // Functional mode only
	// Deadline holds this frame's budgets; the zero value enforces nothing.
	// In a window of two the core layer arms only Tot and TaskBudget: the
	// per-point τ1/τ2 budgets assume a solo schedule and would misfire on
	// the interleaved one.
	Deadline Deadline
}

// Manager orchestrates collaborative inter-frame encoding on a platform.
type Manager struct {
	Platform *device.Platform
	Mode     Mode
	// Enc is the functional encoder; required in Functional mode.
	Enc *codec.Encoder
	// Telemetry counts the CheckObserve violations; completed frames are
	// reported to it by the core layer, not from here.
	Telemetry *telemetry.Telemetry
	// Check runs the internal/check schedule validator on every executed
	// frame: the Algorithm-2 distribution invariants, the data-access
	// consistency rules and the τ1/τ2/τtot dependency ordering of the
	// executed timeline, plus the cross-frame rules on a window of two. A
	// violation fails the window with a check.Error.
	// Off by default; the cost when on is O(spans²) per frame.
	Check bool
	// CheckObserve softens Check for the serving path: instead of failing
	// the frame, violations are counted into the Telemetry sink's
	// feves_check_violations_total counter (per rule) and the frame
	// proceeds — a tenant's bad schedule becomes an alert, not an outage.
	CheckObserve bool
	// Down marks devices excluded by the health tracker: no tasks at all
	// (kernels or transfers, including the RF broadcast that otherwise
	// reaches every accelerator) are scheduled for them. The distribution
	// must assign such devices zero rows.
	Down []bool

	// slots holds the in-flight frames' retained build state and out their
	// results, so the steady-state frame loop allocates nothing. Shared
	// across slots and rebuilt only when Platform changes: the
	// discrete-event simulator (task free-list included), the per-device
	// resources and the precomputed task labels.
	slots    [maxWindow]frameSlot
	out      [maxWindow]FrameTiming
	sim      *simclock.Sim
	res      []devResources
	builtFor *device.Platform
	modLabel [4][]string // [Module][dev] "ME@3"
	trLabel  [7][]string // [Transfer][dev] "SF.h2d@3"
	zeroSR   []int
}

// frameSlot is one in-flight frame's retained build state.
type frameSlot struct {
	// host is this slot's barrier resource ("host", "host.b"): τ barriers
	// are zero-duration FIFO tasks, so in-flight frames need disjoint
	// barrier queues or one frame's τ2 would head-of-line block behind the
	// other's τ1.
	host *simclock.Resource
	// job and plan are the functional frame and the row ranges its kernel
	// tasks cover, one per device and module (Functional mode only).
	job              *codec.FrameJob
	plan             codec.InterPlan
	offM, offL, offS []int
	obsBuf           []obsRec
	// maxFac/maxDur collect per-device blame evidence for the deadline
	// check: the worst kernel slowdown factor and the longest kernel.
	maxFac, maxDur []float64
	tasks          []*simclock.Task
	tau1Deps       []*simclock.Task
	tau2Deps       []*simclock.Task
	tau1, tau2     *simclock.Task
	spans          []TaskSpan
}

// obsRec is one schedule task pending a Performance Characterization
// observation after the simulation runs.
type obsRec struct {
	dev  int
	mod  sched.Module
	tr   sched.Transfer
	isTr bool
	rows int
	task *simclock.Task
}

func (s *frameSlot) reset(nDev int) {
	s.obsBuf = s.obsBuf[:0]
	s.tasks = s.tasks[:0]
	s.maxFac = growFloats(s.maxFac, nDev)
	s.maxDur = growFloats(s.maxDur, nDev)
	for i := range s.maxFac {
		s.maxFac[i], s.maxDur[i] = 0, 0
	}
	s.plan.ME, s.plan.INT, s.plan.SME = s.plan.ME[:0], s.plan.INT[:0], s.plan.SME[:0]
	s.tau1Deps = s.tau1Deps[:0]
	s.tau2Deps = s.tau2Deps[:0]
	s.tau1, s.tau2 = nil, nil
	s.job = nil
}

// ensureSim (re)builds the simulator, device resources and label tables
// when the platform changed, and otherwise just rewinds the retained
// simulator to time zero. Health exclusions (Down) do not affect the
// resource set, so pool churn on a fixed lease stays allocation-free.
func (m *Manager) ensureSim() {
	pl := m.Platform
	if m.sim != nil && m.builtFor == pl {
		m.sim.Reset(0)
		return
	}
	nDev := pl.NumDevices()
	m.sim = simclock.New(0)
	m.slots[0].host = m.sim.NewResource("host")
	m.slots[1].host = m.sim.NewResource("host.b")
	m.res = make([]devResources, nDev)
	for i := 0; i < nDev; i++ {
		p := pl.Dev(i)
		r := devResources{compute: m.sim.NewResource(fmt.Sprintf("%s#%d.compute", p.Name, i))}
		if p.Class == device.GPU {
			ce := m.sim.NewResource(fmt.Sprintf("%s#%d.ce0", p.Name, i))
			r.ceH2D, r.ceD2H = ce, ce
			if p.CopyEngines == 2 {
				r.ceD2H = m.sim.NewResource(fmt.Sprintf("%s#%d.ce1", p.Name, i))
			}
		}
		m.res[i] = r
	}
	for mod := range m.modLabel {
		m.modLabel[mod] = make([]string, nDev)
		for i := 0; i < nDev; i++ {
			m.modLabel[mod][i] = fmt.Sprintf("%s@%d", sched.Module(mod), i)
		}
	}
	for tr := range m.trLabel {
		m.trLabel[tr] = make([]string, nDev)
		for i := 0; i < nDev; i++ {
			m.trLabel[tr][i] = fmt.Sprintf("%s@%d", sched.Transfer(tr), i)
		}
	}
	m.zeroSR = make([]int, nDev)
	m.builtFor = pl
}

// isDown reports whether device i is excluded from scheduling.
func (m *Manager) isDown(i int) bool { return m.Down != nil && i < len(m.Down) && m.Down[i] }

// devResources holds the simulator resources of one device.
type devResources struct {
	compute *simclock.Resource
	ceH2D   *simclock.Resource // nil for CPU cores
	ceD2H   *simclock.Resource // == ceH2D for single-copy-engine GPUs
}

// validate rejects a frame input the schedule cannot be built from.
func (m *Manager) validate(in *FrameInput) error {
	nDev := m.Platform.NumDevices()
	if err := in.W.Validate(); err != nil {
		return err
	}
	if err := in.D.Validate(in.W.Rows()); err != nil {
		return err
	}
	if len(in.D.M) != nDev {
		return fmt.Errorf("vcm: distribution for %d devices on %d-device platform", len(in.D.M), nDev)
	}
	for i := 0; i < nDev; i++ {
		if m.isDown(i) && (in.D.M[i] != 0 || in.D.L[i] != 0 || in.D.S[i] != 0) {
			return fmt.Errorf("vcm: distribution assigns rows to excluded device %d", i)
		}
	}
	if m.isDown(in.D.RStarDev) {
		return fmt.Errorf("vcm: R* placed on excluded device %d", in.D.RStarDev)
	}
	if m.Mode != Functional {
		return nil
	}
	if m.Enc == nil || in.CF == nil {
		return fmt.Errorf("vcm: functional mode needs an encoder and a frame")
	}
	if in.CF.MBHeight() != in.W.Rows() || in.CF.MBWidth() != in.W.MBW {
		return fmt.Errorf("vcm: frame is %dx%d MBs but workload says %dx%d",
			in.CF.MBWidth(), in.CF.MBHeight(), in.W.MBW, in.W.MBH)
	}
	if in.Chain < 0 || in.Chain >= m.Enc.Chains() {
		return fmt.Errorf("vcm: frame %d predicts from chain %d of a %d-chain encoder",
			in.Frame, in.Chain, m.Enc.Chains())
	}
	return nil
}

// kernel submits one module kernel of a frame, recording the observation
// and blame evidence into the frame's slot.
func (m *Manager) kernel(s *frameSlot, in *FrameInput,
	i int, mod sched.Module, nRows int, deps ...*simclock.Task) *simclock.Task {

	if nRows == 0 || m.isDown(i) {
		return nil
	}
	p := m.Platform.Dev(i)
	var per float64
	switch mod {
	case sched.ModME:
		per = p.KME(in.W)
	case sched.ModINT:
		per = p.KINT(in.W)
	case sched.ModSME:
		per = p.KSME(in.W)
	case sched.ModRStar:
		per = p.KRStar(in.W)
	}
	fac := m.Platform.EffectiveFactor(in.Frame, i, int(mod))
	if fac > s.maxFac[i] {
		s.maxFac[i] = fac
	}
	dur := float64(nRows) * per * fac
	if dur > s.maxDur[i] {
		s.maxDur[i] = dur
	}
	t := m.sim.Add(m.res[i].compute, m.modLabel[mod][i], dur, deps...)
	s.obsBuf = append(s.obsBuf, obsRec{dev: i, mod: mod, rows: nRows, task: t})
	s.tasks = append(s.tasks, t)
	return t
}

// xfer submits one host↔device transfer of a frame.
func (m *Manager) xfer(s *frameSlot, i int, tr sched.Transfer,
	nRows, bytesPerRow int, h2d bool, deps ...*simclock.Task) *simclock.Task {

	if nRows == 0 || !m.Platform.IsGPU(i) || m.isDown(i) {
		return nil
	}
	p := m.Platform.Dev(i)
	var dur float64
	r := m.res[i].ceH2D
	if h2d {
		dur = p.TH2D(nRows * bytesPerRow)
	} else {
		dur = p.TD2H(nRows * bytesPerRow)
		r = m.res[i].ceD2H
	}
	t := m.sim.Add(r, m.trLabel[tr][i], dur, deps...)
	s.obsBuf = append(s.obsBuf, obsRec{dev: i, tr: tr, isTr: true, rows: nRows, task: t})
	s.tasks = append(s.tasks, t)
	return t
}

// phase1 submits one frame's τ1 phase (RF/CF/SFprev inputs, INT and ME
// kernels, SF/MV outputs) and its τ1 barrier.
func (m *Manager) phase1(s *frameSlot, in *FrameInput) {
	pl := m.Platform
	d, w := &in.D, in.W
	rows := w.Rows()
	rstar := d.RStarDev
	prevSigmaR := in.PrevSigmaR
	if prevSigmaR == nil {
		prevSigmaR = m.zeroSR
	}
	for i := 0; i < pl.NumDevices(); i++ {
		var rf *simclock.Task
		if pl.IsGPU(i) && i != rstar {
			// The R* device reconstructed the RF itself; the others fetch
			// it from the host (Fig. 5(a), start of τ1).
			rf = m.xfer(s, i, sched.RFh2d, rows, w.RFRowBytes(), true)
		}
		cfIn := m.xfer(s, i, sched.CFh2d, d.M[i], w.CFRowBytes(), true, rf)
		sfPrev := m.xfer(s, i, sched.SFh2d, prevSigmaR[i], w.SFRowBytes(), true, rf)

		intT := m.kernel(s, in, i, sched.ModINT, d.L[i], rf)
		if intT != nil && m.Mode == Functional {
			s.plan.INT = append(s.plan.INT, codec.RowRange{Lo: s.offL[i], Hi: s.offL[i] + d.L[i]})
		}
		meT := m.kernel(s, in, i, sched.ModME, d.M[i], cfIn, rf)
		if meT != nil && m.Mode == Functional {
			s.plan.ME = append(s.plan.ME, codec.RowRange{Lo: s.offM[i], Hi: s.offM[i] + d.M[i]})
		}
		sfOut := m.xfer(s, i, sched.SFd2h, d.L[i], w.SFRowBytes(), false, intT)
		mvOut := m.xfer(s, i, sched.MVd2h, d.M[i], w.MVRowBytes(), false, meT)
		s.tau1Deps = append(s.tau1Deps, cfIn, sfPrev, intT, meT, sfOut, mvOut)
	}
	s.tau1 = m.sim.Add(s.host, "tau1", 0, s.tau1Deps...)
	s.tasks = append(s.tasks, s.tau1)
}

// phase2 submits one frame's τ2 phase (Δ transfers, SME kernels, MV
// outputs, R* MC prefetch) and its τ2 barrier.
func (m *Manager) phase2(s *frameSlot, in *FrameInput) {
	pl := m.Platform
	d, w := &in.D, in.W
	rows := w.Rows()
	rstar := d.RStarDev
	tau1 := s.tau1
	for i := 0; i < pl.NumDevices(); i++ {
		dlIn := m.xfer(s, i, sched.SFh2d, d.DeltaL[i], w.SFRowBytes(), true, tau1)
		dmIn := m.xfer(s, i, sched.MVh2d, d.DeltaM[i], w.MVRowBytes(), true, tau1)
		smeT := m.kernel(s, in, i, sched.ModSME, d.S[i], tau1, dlIn, dmIn)
		if smeT != nil && m.Mode == Functional {
			s.plan.SME = append(s.plan.SME, codec.RowRange{Lo: s.offS[i], Hi: s.offS[i] + d.S[i]})
		}
		s.tau2Deps = append(s.tau2Deps, smeT)
		if pl.IsGPU(i) {
			if i == rstar {
				// Prefetch the remaining CF and SF so MC can run (Fig. 5(b)).
				// The counts clamp at zero: with conservative Δ (e.g. the
				// no-reuse ablation) the device may already hold every row.
				cfMC := m.xfer(s, i, sched.CFh2d, clamp0(rows-d.M[i]-d.DeltaM[i]), w.CFRowBytes(), true, tau1)
				sfMC := m.xfer(s, i, sched.SFh2d, clamp0(rows-d.L[i]-d.DeltaL[i]), w.SFRowBytes(), true, tau1)
				s.tau2Deps = append(s.tau2Deps, cfMC, sfMC)
			} else {
				mvOut := m.xfer(s, i, sched.MVd2h, d.S[i], w.MVRowBytes(), false, smeT)
				s.tau2Deps = append(s.tau2Deps, mvOut)
			}
		}
	}
	s.tau2 = m.sim.Add(s.host, "tau2", 0, s.tau2Deps...)
	s.tasks = append(s.tasks, s.tau2)
}

// tail submits one frame's τ2→τtot work: R* on its device (or the
// cooperative CPU section) and the σ SF completions on the others.
func (m *Manager) tail(s *frameSlot, in *FrameInput) {
	pl := m.Platform
	d, w := &in.D, in.W
	rows := w.Rows()
	rstar := d.RStarDev
	tau2 := s.tau2
	if pl.IsGPU(rstar) {
		mvIn := m.xfer(s, rstar, sched.MVh2d, rows-d.S[rstar], w.MVRowBytes(), true, tau2)
		rstarTask := m.kernel(s, in, rstar, sched.ModRStar, rows, tau2, mvIn)
		m.xfer(s, rstar, sched.RFd2h, rows, w.RFRowBytes(), false, rstarTask)
	} else {
		// CPU-centric: the R* group runs cooperatively on the surviving
		// cores; model the parallel section as one slice per core.
		cores := m.upCores()
		per := rows / cores
		extra := rows % cores
		k := 0
		for c := pl.NumGPUs(); c < pl.NumDevices(); c++ {
			if m.isDown(c) {
				continue
			}
			share := per
			if k < extra {
				share++
			}
			k++
			m.kernel(s, in, c, sched.ModRStar, share, tau2)
		}
	}
	for i := 0; i < pl.NumDevices(); i++ {
		if pl.IsGPU(i) && i != rstar {
			m.xfer(s, i, sched.SFh2d, d.Sigma[i], w.SFRowBytes(), true, tau2)
		}
	}
}

// EncodeFrames simulates a window of one or two inter frames as one
// schedule and returns each completed frame's measured timing, updating pm
// with every observed kernel and transfer time. Frames of a window of two
// must predict from distinct reference chains; their submissions interleave
// phase by phase. In Functional mode each frame's CF is encoded for real
// through the manager's Encoder, in display order.
//
// Deadline budgets are checked per frame on the simulated timeline, before
// any functional kernel runs: a trip aborts the whole window with the
// encoder untouched, so the core layer's retry on a reduced topology
// reproduces the bitstream bit-exactly. A scene cut inside a frame with
// later frames behind it returns the timings up to and including that
// frame together with ErrPairSceneCut.
//
// The returned slice aliases storage the Manager reuses: like the Spans it
// carries, it is valid until the next EncodeFrames call.
func (m *Manager) EncodeFrames(pm *sched.PerfModel, frames ...FrameInput) ([]FrameTiming, error) {
	n := len(frames)
	if n == 0 || n > maxWindow {
		return nil, fmt.Errorf("vcm: window of %d frames, want 1..%d", n, maxWindow)
	}
	for k := range frames {
		if err := m.validate(&frames[k]); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			if frames[j].Chain == frames[k].Chain {
				return nil, fmt.Errorf("vcm: frames %d and %d share chain %d",
					frames[j].Frame, frames[k].Frame, frames[k].Chain)
			}
		}
	}
	m.ensureSim()
	nDev := m.Platform.NumDevices()
	for k := range frames {
		s, in := &m.slots[k], &frames[k]
		s.reset(nDev)
		s.offM = sched.OffsetsInto(s.offM, in.D.M)
		s.offL = sched.OffsetsInto(s.offL, in.D.L)
		s.offS = sched.OffsetsInto(s.offS, in.D.S)
		if m.Mode == Functional {
			s.job = m.Enc.BeginFrameOn(in.CF, in.Chain)
		}
	}

	// Interleaved submission: per phase, the first frame's tasks enter
	// every device queue first, the second frame's right behind — its wave
	// fills the first's synchronization stalls on the strict-FIFO engines.
	for k := range frames {
		m.phase1(&m.slots[k], &frames[k])
	}
	for k := range frames {
		m.phase2(&m.slots[k], &frames[k])
	}
	for k := range frames {
		m.tail(&m.slots[k], &frames[k])
	}

	makespan, err := m.sim.Run()
	if err != nil {
		return nil, fmt.Errorf("vcm: schedule execution: %w", err)
	}

	// Every frame's budgets are checked and the error that names a culprit
	// wins: on the shared FIFO engines one frame's lateness is often caused
	// by its partner's sick device (a fault landing on frame B drags frame
	// A's τtot past its budget too), and failover can only act on blame.
	out := m.out[:n]
	var derr *DeadlineError
	for k := range frames {
		s, in := &m.slots[k], &frames[k]
		out[k] = FrameTiming{Frame: in.Frame, Tau1: s.tau1.End, Tau2: s.tau2.End,
			Tot: maxTaskEnd(s.tasks), RStarDev: in.D.RStarDev, Chain: in.Chain}
		if n > 1 {
			out[k].PairMakespan = makespan
		}
		e := in.Deadline.check(in.Frame, out[k].Tau1, out[k].Tau2, out[k].Tot, s.maxFac, s.maxDur)
		if e != nil && (derr == nil || (len(derr.Blamed) == 0 && len(e.Blamed) > 0)) {
			derr = e
		}
	}
	if derr != nil {
		return nil, derr
	}

	if m.Mode == Functional {
		for k := range out {
			s := &m.slots[k]
			s.plan.Ways = h264.BalancedWays()
			out[k].Stats = m.Enc.RunInter(s.job, &s.plan)
			if out[k].Stats.Intra && k+1 < n {
				// The frame scene-cut to intra inside R*: every chain was
				// flushed, the later frames' references are gone and their
				// plans must not run.
				out = out[:k+1]
				err = ErrPairSceneCut
				break
			}
		}
	}

	for k := range out {
		s := &m.slots[k]
		s.spans = s.spans[:0]
		for _, t := range s.tasks {
			s.spans = append(s.spans, TaskSpan{Resource: t.Res.Name, Label: t.Label, Start: t.Start, End: t.End})
		}
		out[k].Spans = s.spans
	}
	if m.Check {
		if cerr := m.runChecks(pm, frames, out); cerr != nil {
			return nil, cerr
		}
	}
	for k := range out {
		m.observe(&m.slots[k], &frames[k], &out[k], pm)
	}
	return out, err
}

// runChecks runs the per-frame schedule validator on each completed frame
// plus the cross-frame rules when two completed.
func (m *Manager) runChecks(pm *sched.PerfModel, frames []FrameInput, out []FrameTiming) error {
	pl := m.Platform
	topo := sched.Topology{NumGPU: pl.NumGPUs(), Cores: pl.Cores, Down: m.Down}
	for k := range out {
		in, ft := &frames[k], &out[k]
		if err := check.Frame(topo, in.W, in.D, pm, ft.Spans, ft.Tau1, ft.Tau2, ft.Tot); err != nil {
			if verr := m.reportCheck(in.Frame, err); verr != nil {
				return verr
			}
		}
	}
	if len(out) < 2 {
		return nil
	}
	a := check.PairExec{Frame: out[0].Frame, Chain: out[0].Chain, Spans: out[0].Spans, Tot: out[0].Tot}
	b := check.PairExec{Frame: out[1].Frame, Chain: out[1].Chain, Spans: out[1].Spans, Tot: out[1].Tot}
	if err := check.Pair(a, b); err != nil {
		return m.reportCheck(b.Frame, err)
	}
	return nil
}

// reportCheck applies the CheckObserve policy to one validation error:
// fatal by default, counted into telemetry in observe mode.
func (m *Manager) reportCheck(frame int, err error) error {
	var ce *check.Error
	if !m.CheckObserve || !errors.As(err, &ce) {
		return fmt.Errorf("vcm: frame %d: %w", frame, err)
	}
	rules := make([]string, len(ce.Violations))
	for i, v := range ce.Violations {
		rules[i] = v.Rule
	}
	m.Telemetry.CheckViolations(frame, rules)
	return nil
}

// observe feeds one frame's executed tasks into the Performance
// Characterization (Algorithm 1 lines 5/10).
func (m *Manager) observe(s *frameSlot, in *FrameInput, ft *FrameTiming, pm *sched.PerfModel) {
	rstar := in.D.RStarDev
	var rstarTotal float64
	for _, o := range s.obsBuf {
		dur := o.task.End - o.task.Start
		if o.isTr {
			pm.ObserveTransfer(o.dev, o.tr, o.rows, dur)
			continue
		}
		ft.ModuleTime[o.mod] += dur
		if o.mod == sched.ModRStar {
			rstarTotal += dur
			continue
		}
		pm.ObserveCompute(o.dev, o.mod, o.rows, in.W.UsableRF, dur)
	}
	if rstarTotal > 0 {
		// For CPU-centric R* the wall time is the parallel section length,
		// not the summed core time.
		wall := rstarTotal
		if !m.Platform.IsGPU(rstar) {
			wall = rstarTotal / float64(m.upCores())
		}
		pm.ObserveCompute(rstar, sched.ModRStar, 0, 1, wall)
	}
}

// upCores counts the CPU cores not marked down.
func (m *Manager) upCores() int {
	pl := m.Platform
	n := 0
	for c := pl.NumGPUs(); c < pl.NumDevices(); c++ {
		if !m.isDown(c) {
			n++
		}
	}
	return n
}

// maxTaskEnd returns the latest end time over one frame's tasks — its
// τtot; for a window of one this is the schedule's makespan.
func maxTaskEnd(tasks []*simclock.Task) float64 {
	end := 0.0
	for _, t := range tasks {
		if t.End > end {
			end = t.End
		}
	}
	return end
}

func clamp0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// growFloats returns s resized to n entries, reusing its backing array
// when large enough. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
