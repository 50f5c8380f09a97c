package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"sync"
)

// Bucket layouts for the standard instruments. Frame times on the paper's
// platforms range from a few ms (small formats) to seconds (256×256 SA),
// scheduling overhead is bounded at 2 ms, and prediction error is a
// relative fraction.
var (
	frameTimeBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5}
	overheadBuckets  = []float64{1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3}
	relErrBuckets    = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1}
)

// AuditRecord is the hook payload of one balancer decision: the predicted
// versus measured τtot and the model drift its measurements caused.
type AuditRecord struct {
	Frame    int
	Balancer string
	PredTot  float64
	Measured float64
	Drift    []DeviceDrift
}

// Telemetry is the sink the framework's instrumentation hooks feed. Any of
// the four outputs may be nil to disable it; a nil *Telemetry disables
// everything — every hook method is safe (and a near-no-op) on the nil
// receiver, which is the zero-cost fast path the frame loop relies on.
//
// A Telemetry may be scoped to one tenant with ForSession: the scope
// shares the underlying sinks but stamps every event, metric and trace
// slice with the session label and gives the tenant its own Perfetto
// lane. Scoped or not, the steady-state hook path (FrameStart, FrameEnd,
// Audit) allocates nothing once its cached instruments are minted — the
// flight recorder and trace ring reuse slot storage, and event structs are
// only built when an EventLog is attached.
type Telemetry struct {
	Metrics *Registry
	Events  *EventLog
	Trace   *TraceWriter
	Flight  *FlightRecorder

	node    string // fleet node label; "" = single-node / unscoped
	session string // tenant label; "" = unscoped
	pid     int    // perfetto lane (0 = unscoped lane)

	mu     sync.Mutex
	offset float64 // perfetto run-time offset in seconds
	inst   *instruments
}

// instruments caches the registry lookups of the steady-state hook path.
// Minting happens once per scope (cold); after that every per-frame
// metric touch is a pointer dereference plus an atomic — no label-key
// building, no map writes.
type instruments struct {
	framesIntra *Counter
	framesInter *Counter
	tauTot      *Histogram
	tau1        *Histogram
	schedOH     *Histogram
	fps         *Gauge
	psnr        *Gauge
	codedBits   *Counter
	spans       *Counter
	simSeconds  *Counter
	retries     *Counter
	predAbs     *Histogram
	predRel     *Histogram
	decisions   map[string]*Counter // by balancer name
	drift       map[driftKey]*driftPair
	lpWarm      *Counter
	lpCold      *Counter
	lpWarmRej   *Counter
	lpPivots    *Counter
	lpDegen     *Counter
	lpBland     *Counter
}

type driftKey struct {
	device int
	module string
}

type driftPair struct {
	k   *Gauge
	rel *Gauge
}

// New returns a Telemetry with every output enabled: a fresh registry, an
// event log on events, a trace accumulator and a flight recorder. Callers
// wanting a subset build the struct directly.
func New(events *EventLog) *Telemetry {
	return &Telemetry{
		Metrics: NewRegistry(),
		Events:  events,
		Trace:   NewTraceWriter(),
		Flight:  NewFlightRecorder(0),
	}
}

// Enabled reports whether any hook will record something.
func (t *Telemetry) Enabled() bool { return t != nil }

// Session returns the tenant label of a scoped Telemetry ("" when
// unscoped or nil).
func (t *Telemetry) Session() string {
	if t == nil {
		return ""
	}
	return t.session
}

// Node returns the fleet node label of a node-scoped Telemetry ("" when
// unscoped or nil).
func (t *Telemetry) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// ForNode returns a node-scoped view of t: same sinks, but every event,
// flight-recorder record and metric carries the node label — the fleet
// coordinator hands each simulated node such a scope so a multi-node run
// stays attributable record by record. Session scopes derived from a node
// scope (ForSession) keep the node label and get a node-qualified Perfetto
// lane ("node0/job-1"). A nil receiver stays nil; an empty label returns t
// itself.
func (t *Telemetry) ForNode(label string) *Telemetry {
	if t == nil || label == "" {
		return t
	}
	s := &Telemetry{
		Metrics: t.Metrics,
		Events:  t.Events,
		Trace:   t.Trace,
		Flight:  t.Flight,
		node:    label,
		session: t.session,
	}
	if t.Trace != nil {
		s.pid = t.Trace.SessionPID(s.laneName(t.session, label))
	}
	return s
}

// ForSession returns a tenant-scoped view of t: same Registry, EventLog,
// TraceWriter and FlightRecorder, but every record carries the session
// label, metrics gain a {session="…"} dimension, and the tenant gets its
// own Perfetto process lane with its own frame-abutting clock. A node
// scope's sessions inherit the node label. A nil receiver stays nil; an
// empty name returns t itself.
func (t *Telemetry) ForSession(name string) *Telemetry {
	if t == nil || name == "" {
		return t
	}
	s := &Telemetry{
		Metrics: t.Metrics,
		Events:  t.Events,
		Trace:   t.Trace,
		Flight:  t.Flight,
		node:    t.node,
		session: name,
	}
	if t.Trace != nil {
		s.pid = t.Trace.SessionPID(s.laneName(name, t.node))
	}
	return s
}

// laneName derives the Perfetto process-lane label of a scope: the session
// name, qualified by the node label on fleet nodes so two nodes' "job-1"
// tenants land on distinct lanes.
func (t *Telemetry) laneName(session, node string) string {
	switch {
	case node == "":
		return session
	case session == "":
		return node
	default:
		return node + "/" + session
	}
}

// labels prepends the node and session dimensions of a scoped Telemetry.
// Cold path only — results are cached in instruments.
func (t *Telemetry) labels(pairs ...string) []string {
	if t.session != "" {
		pairs = append([]string{"session", t.session}, pairs...)
	}
	if t.node != "" {
		pairs = append([]string{"node", t.node}, pairs...)
	}
	return pairs
}

// ins returns the scope's cached instruments, minting them on first use.
// Callers check t.Metrics != nil first.
func (t *Telemetry) ins() *instruments {
	t.mu.Lock()
	in := t.inst
	if in == nil {
		in = t.mint()
		t.inst = in
	}
	t.mu.Unlock()
	return in
}

// mint registers the scope's fixed-label instruments. Called with t.mu
// held, once per scope.
func (t *Telemetry) mint() *instruments {
	r := t.Metrics
	in := &instruments{
		decisions: map[string]*Counter{},
		drift:     map[driftKey]*driftPair{},
	}
	in.framesInter = r.Counter("feves_frames_total", "Frames processed by the framework.", t.labels("type", "inter")...)
	in.framesIntra = r.Counter("feves_frames_total", "Frames processed by the framework.", t.labels("type", "intra")...)
	in.tauTot = r.Histogram("feves_tau_tot_seconds", "Measured inter-loop time per frame (τtot).", frameTimeBuckets, t.labels()...)
	in.tau1 = r.Histogram("feves_tau1_seconds", "Measured first synchronization point (τ1).", frameTimeBuckets, t.labels()...)
	in.schedOH = r.Histogram("feves_sched_overhead_seconds", "Wall-clock cost of each balancing decision.", overheadBuckets, t.labels()...)
	in.fps = r.Gauge("feves_fps", "Simulated frame rate of the last frame: 1/τtot, or 2/pair makespan when it ran frame-parallel.", t.labels()...)
	in.psnr = r.Gauge("feves_psnr_y_db", "Luma PSNR of the last coded frame.", t.labels()...)
	in.codedBits = r.Counter("feves_coded_bits_total", "Total coded bitstream size.", t.labels()...)
	in.spans = r.Counter("feves_schedule_spans_total", "Executed schedule tasks (kernels, transfers, barriers).", t.labels()...)
	in.simSeconds = r.Counter("feves_simulated_seconds_total", "Accumulated simulated inter-loop time.", t.labels()...)
	in.retries = r.Counter("feves_frame_retries_total", "Frames re-run after a blown deadline.", t.labels()...)
	in.predAbs = r.Histogram("feves_prediction_abs_error_seconds", "Absolute τtot prediction error per frame.", frameTimeBuckets, t.labels()...)
	in.predRel = r.Histogram("feves_prediction_rel_error", "Relative τtot prediction error per frame.", relErrBuckets, t.labels()...)
	in.lpWarm = r.Counter("feves_lp_solves_total", "LP balancing solves by start strategy.", t.labels("start", "warm")...)
	in.lpCold = r.Counter("feves_lp_solves_total", "LP balancing solves by start strategy.", t.labels("start", "cold")...)
	in.lpWarmRej = r.Counter("feves_lp_warm_rejects_total", "Warm-start bases rejected (infeasible after model drift).", t.labels()...)
	in.lpPivots = r.Counter("feves_lp_pivots_total", "Simplex pivots performed by the LP balancer.", t.labels()...)
	in.lpDegen = r.Counter("feves_lp_degenerate_pivots_total", "Degenerate simplex pivots (no objective progress).", t.labels()...)
	in.lpBland = r.Counter("feves_lp_bland_pivots_total", "Pivots taken under Bland's anti-cycling rule.", t.labels()...)
	if t.Trace != nil {
		// Drops are global to the shared ring, so the counter carries no
		// session label regardless of scope.
		t.Trace.SetDropCounter(r.Counter("feves_trace_events_dropped_total", "Trace events evicted by the retained-event ring bound."))
	}
	return in
}

// FrameStart records the beginning of a frame.
func (t *Telemetry) FrameStart(frame int, intra bool) {
	if t == nil {
		return
	}
	if t.Events != nil {
		t.Events.Emit(FrameStartEvent{Type: "frame_start", Node: t.node, Session: t.session, Frame: frame, Intra: intra})
	}
}

// FrameEnd reports one completed frame, once: rec is its summary, spans its
// executed schedule (nil for a scheduled intra frame, which runs none). It
// feeds the summary event, the standard metrics (frame counters,
// τtot/overhead histograms, throughput gauges, LP-solver counters), the
// whole-run Perfetto timeline and the flight recorder. rec's slices and
// spans may alias caller scratch: every sink copies what it keeps before
// FrameEnd returns.
//
// An inter frame lands on the timeline at the scope's current run offset,
// which then moves on by advance, decoupled from the frame's τtot: a serial
// frame advances it by tot so consecutive frames abut on the tenant's lane,
// while the frames of a jointly scheduled window share one simulated
// interval — all but the last completed one advance by zero so they land
// on the same trace origin (their spans interleave on the device lanes, as
// they did on the devices), and the last advances by the window's makespan.
// The advance also meters the simulated-time counter, so a window accrues
// its makespan once.
func (t *Telemetry) FrameEnd(rec FrameRecord, spans []Span, advance float64) {
	if t == nil {
		return
	}
	if t.Events != nil {
		t.Events.Emit(FrameEndEvent{Type: "frame_end", Node: t.node, Session: t.session, FrameRecord: rec})
	}
	if t.Metrics != nil {
		in := t.ins()
		if rec.Intra {
			in.framesIntra.Inc()
		} else {
			in.framesInter.Inc()
			in.tauTot.Observe(rec.Tot)
			in.tau1.Observe(rec.Tau1)
			in.schedOH.Observe(rec.SchedOverhead)
			// The rule of core.Result.FPS: a paired frame ran at two
			// frames per pair makespan.
			switch {
			case rec.PairMakespan > 0:
				in.fps.Set(2 / rec.PairMakespan)
			case rec.Tot > 0:
				in.fps.Set(1 / rec.Tot)
			}
			in.spans.Add(float64(len(spans)))
			in.simSeconds.Add(advance)
		}
		if rec.Bits > 0 {
			in.codedBits.Add(float64(rec.Bits))
		}
		if rec.PSNRY > 0 {
			in.psnr.Set(rec.PSNRY)
		}
		if lp := rec.LP; lp != nil {
			if lp.WarmSolves > 0 {
				in.lpWarm.Add(float64(lp.WarmSolves))
			}
			if lp.ColdSolves > 0 {
				in.lpCold.Add(float64(lp.ColdSolves))
			}
			if lp.WarmRejects > 0 {
				in.lpWarmRej.Add(float64(lp.WarmRejects))
			}
			if lp.Pivots > 0 {
				in.lpPivots.Add(float64(lp.Pivots))
			}
			if lp.DegeneratePivots > 0 {
				in.lpDegen.Add(float64(lp.DegeneratePivots))
			}
			if lp.BlandPivots > 0 {
				in.lpBland.Add(float64(lp.BlandPivots))
			}
		}
	}
	if !rec.Intra {
		t.mu.Lock()
		off := t.offset
		t.offset += advance
		t.mu.Unlock()
		if t.Trace != nil {
			t.Trace.AddFrame(t.pid, rec.Frame, rec.Attempt, off, rec.Tau1, rec.Tau2, rec.Tot, spans)
		}
	}
	t.Flight.Commit(t.node, t.session, &rec, spans)
}

// Audit records one balancer decision's predicted-vs-measured outcome and
// the resulting model drift.
func (t *Telemetry) Audit(rec AuditRecord) {
	if t == nil {
		return
	}
	absErr := math.Abs(rec.Measured - rec.PredTot)
	relErr := 0.0
	if rec.Measured > 0 {
		relErr = absErr / rec.Measured
	}
	if t.Events != nil {
		t.Events.Emit(AuditEvent{
			Type: "balancer_audit", Node: t.node, Session: t.session, Frame: rec.Frame, Balancer: rec.Balancer,
			PredTot: rec.PredTot, Measured: rec.Measured,
			AbsErr: absErr, RelErr: relErr, Drift: rec.Drift,
		})
	}
	if t.Metrics != nil {
		in := t.ins()
		// Map lookups stay under t.mu: one unscoped Telemetry may be shared
		// by several frameworks. Reads are the steady state (no allocation);
		// inserts only happen on first sight of a balancer or device/module.
		t.mu.Lock()
		dec := in.decisions[rec.Balancer]
		if dec == nil {
			dec = t.Metrics.Counter("feves_balancer_decisions_total", "Balancer decisions audited.", t.labels("balancer", rec.Balancer)...)
			in.decisions[rec.Balancer] = dec
		}
		t.mu.Unlock()
		dec.Inc()
		in.predAbs.Observe(absErr)
		in.predRel.Observe(relErr)
		for _, d := range rec.Drift {
			key := driftKey{device: d.Device, module: d.Module}
			t.mu.Lock()
			g := in.drift[key]
			if g == nil {
				dev := fmt.Sprintf("%d", d.Device)
				g = &driftPair{
					k: t.Metrics.Gauge("feves_model_k_seconds", "Characterized per-row module time (T^R* whole-frame).",
						t.labels("device", dev, "module", d.Module)...),
					rel: t.Metrics.Gauge("feves_model_drift_rel", "Relative model change from the last EWMA update.",
						t.labels("device", dev, "module", d.Module)...),
				}
				in.drift[key] = g
			}
			t.mu.Unlock()
			g.k.Set(d.After)
			g.rel.Set(d.Rel)
		}
	}
}

// CheckViolations records schedule-invariant violations observed in
// non-fatal (serving) mode: one feves_check_violations_total increment
// per broken rule, plus a check_violation event naming them. The strict
// path (Config.CheckSchedules on the library API) still fails the frame
// instead.
func (t *Telemetry) CheckViolations(frame int, rules []string) {
	if t == nil || len(rules) == 0 {
		return
	}
	if t.Events != nil {
		t.Events.Emit(CheckEvent{Type: "check_violation", Node: t.node, Session: t.session, Frame: frame, Rules: rules})
	}
	if r := t.Metrics; r != nil {
		for _, rule := range rules {
			r.Counter("feves_check_violations_total",
				"Schedule invariant violations observed (non-fatal check mode).",
				t.labels("rule", rule)...).Inc()
		}
	}
}

// HealthTransition records a device health-state change (healthy →
// degraded → excluded and back): the event, a per-transition counter, an
// incident-ring breadcrumb, and — for exclusions — the
// feves_device_excluded_total counter the failover acceptance criteria
// key on. reason is the deadline point that tripped ("tau1", "tau_tot",
// "task", …) or "recovered".
func (t *Telemetry) HealthTransition(frame, device int, from, to, reason string) {
	if t == nil {
		return
	}
	if t.Events != nil {
		t.Events.Emit(HealthEvent{Type: "health_transition", Node: t.node, Session: t.session, Frame: frame,
			Device: device, From: from, To: to, Reason: reason})
	}
	t.Flight.Incident("health_transition", t.node, t.session, frame, device, from+"->"+to+" ("+reason+")")
	if r := t.Metrics; r != nil {
		dev := fmt.Sprintf("%d", device)
		r.Counter("feves_health_transitions_total", "Device health-state transitions.",
			t.labels("device", dev, "to", to)...).Inc()
		if to == "excluded" {
			r.Counter("feves_device_excluded_total", "Devices excluded from scheduling by the health tracker.",
				t.labels("device", dev)...).Inc()
		}
	}
}

// FrameRetry records one failover retry: a frame blew a deadline and is
// being re-run on the (possibly reduced) topology.
func (t *Telemetry) FrameRetry(frame, attempt int, point string, blamed []int) {
	if t == nil {
		return
	}
	if t.Events != nil {
		t.Events.Emit(RetryEvent{Type: "frame_retry", Node: t.node, Session: t.session, Frame: frame,
			Attempt: attempt, Point: point, Blamed: blamed})
	}
	dev := -1
	if len(blamed) > 0 {
		dev = blamed[0]
	}
	t.Flight.Incident("frame_retry", t.node, t.session, frame, dev, "deadline "+point+" blown, attempt "+strconv.Itoa(attempt))
	if t.Metrics != nil {
		t.ins().retries.Inc()
	}
}

// Mark records a one-off occurrence ("idr", "scene_cut").
func (t *Telemetry) Mark(typ string, frame int) {
	if t == nil {
		return
	}
	if t.Events != nil {
		t.Events.Emit(MarkEvent{Type: typ, Node: t.node, Session: t.session, Frame: frame})
	}
	if r := t.Metrics; r != nil {
		r.Counter("feves_marks_total", "One-off framework events (IDR refreshes, scene cuts).", t.labels("type", typ)...).Inc()
	}
}

// Incident drops a breadcrumb into the flight recorder's incident ring
// under the scope's session ("device_down", "re_lease", …).
func (t *Telemetry) Incident(kind string, frame, device int, detail string) {
	if t == nil {
		return
	}
	t.Flight.Incident(kind, t.node, t.session, frame, device, detail)
}

// CaptureBundle snapshots a post-mortem bundle under the scope's session.
// Returns a zero Bundle when no flight recorder is attached.
func (t *Telemetry) CaptureBundle(reason string, frame int, detail string) Bundle {
	if t == nil || t.Flight == nil {
		return Bundle{}
	}
	b := t.Flight.Capture(reason, t.node, t.session, frame, detail)
	if t.Events != nil {
		t.Events.Emit(CaptureEvent{Type: "flight_capture", Node: t.node, Session: t.session,
			Frame: frame, Reason: reason, Bundle: b.ID, Detail: detail})
	}
	if r := t.Metrics; r != nil {
		r.Counter("feves_flight_bundles_total", "Post-mortem flight bundles captured.", t.labels("reason", reason)...).Inc()
	}
	return b
}
