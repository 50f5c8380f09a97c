package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// EventLog is a structured event stream: one JSON object per line (JSONL),
// written as events are emitted. Records are type-tagged; the schema is the
// exported record structs of this package (FrameStartEvent, FrameEndEvent,
// AuditEvent, MarkEvent).
type EventLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
}

// NewEventLog writes events to w. The caller owns w's lifetime; EventLog
// never closes it.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w)}
}

// Emit writes one event as a JSON line. Marshalling errors are swallowed:
// telemetry must never fail the encode.
func (l *EventLog) Emit(v interface{}) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.enc.Encode(v) == nil {
		l.n++
	}
	l.mu.Unlock()
}

// Count returns the number of events successfully written.
func (l *EventLog) Count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// FrameStartEvent opens a frame's event group.
type FrameStartEvent struct {
	Type    string `json:"type"` // "frame_start"
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
	Intra   bool   `json:"intra"`
}

// FrameRecord is the per-frame summary, declared once: the framework fills
// it from core.Result and hands it to FrameEnd, and both the frame_end event
// and the flight recorder's FlightEntry embed it, so its JSON tags are the
// wire format of the event stream and of /debug/flight alike. Slice fields
// and LP may alias the caller's scratch; every sink copies what it keeps.
type FrameRecord struct {
	Frame int `json:"frame"`
	// Attempt is the successful attempt index (omitted for first-try
	// frames; >0 after failover retries).
	Attempt int  `json:"attempt,omitempty"`
	Intra   bool `json:"intra"`
	// Chain is the reference chain the frame predicted from (omitted on
	// single-chain streams, where it is always 0).
	Chain int `json:"chain,omitempty"`
	// Tau1/Tau2/Tot are the measured synchronization points in seconds
	// (zero for intra frames, which run outside the balanced inter-loop).
	Tau1 float64 `json:"tau1"`
	Tau2 float64 `json:"tau2"`
	Tot  float64 `json:"tau_tot"`
	// PairMakespan is the joint makespan of the two-frame window the frame
	// ran in (omitted for a serial frame): the pair's throughput is 2 frames
	// per PairMakespan seconds.
	PairMakespan float64 `json:"pair_seconds,omitempty"`
	// PredTau1/PredTau2/PredTot are the LP's predictions (zero for non-LP
	// balancers and the equidistant initialization frame).
	PredTau1 float64 `json:"pred_tau1,omitempty"`
	PredTau2 float64 `json:"pred_tau2,omitempty"`
	PredTot  float64 `json:"pred_tau_tot,omitempty"`
	// SchedOverhead is the real wall-clock balancing cost in seconds.
	SchedOverhead float64 `json:"sched_overhead,omitempty"`
	RStarDev      int     `json:"rstar_dev"`
	M             []int   `json:"m,omitempty"`
	L             []int   `json:"l,omitempty"`
	S             []int   `json:"s,omitempty"`
	// Sigma/SigmaR/DeltaM/DeltaL are Algorithm 2's deferred-transfer and
	// redistribution vectors (absent for non-LP balancers).
	Sigma  []int `json:"sigma,omitempty"`
	SigmaR []int `json:"sigma_r,omitempty"`
	DeltaM []int `json:"delta_m,omitempty"`
	DeltaL []int `json:"delta_l,omitempty"`
	// ModME..ModRStar are summed device-seconds per module group.
	ModME    float64 `json:"mod_me,omitempty"`
	ModINT   float64 `json:"mod_int,omitempty"`
	ModSME   float64 `json:"mod_sme,omitempty"`
	ModRStar float64 `json:"mod_rstar,omitempty"`
	Bits     int     `json:"bits,omitempty"`
	PSNRY    float64 `json:"psnr_y,omitempty"`
	// LP is the frame's LP-solver work delta (nil when the balancer solved
	// no LP this frame).
	LP *LPSolveStats `json:"lp_solve,omitempty"`
}

// FrameEndEvent is the per-frame summary record of the event stream.
type FrameEndEvent struct {
	Type    string `json:"type"` // "frame_end"
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	FrameRecord
}

// DeviceDrift is one device/module model change caused by a frame's EWMA
// update of the Performance Characterization.
type DeviceDrift struct {
	Device int    `json:"device"`
	Module string `json:"module"`
	// Before/After are seconds per macroblock row (T^R* whole-frame);
	// Before is 0 for a first observation.
	Before float64 `json:"before"`
	After  float64 `json:"after"`
	// Rel is |After-Before|/Before (0 for a first observation).
	Rel float64 `json:"rel"`
}

// AuditEvent is the balancer-decision audit record: the LP's predicted
// τtot paired with the measured one, plus the per-device model drift the
// frame's measurements caused — the direct observability of Algorithm 2's
// feedback loop.
type AuditEvent struct {
	Type     string  `json:"type"` // "balancer_audit"
	Node     string  `json:"node,omitempty"`
	Session  string  `json:"session,omitempty"`
	Frame    int     `json:"frame"`
	Balancer string  `json:"balancer,omitempty"`
	PredTot  float64 `json:"pred_tau_tot"`
	Measured float64 `json:"measured_tau_tot"`
	// AbsErr is |measured-predicted| seconds; RelErr normalizes by the
	// measured value.
	AbsErr float64       `json:"abs_err"`
	RelErr float64       `json:"rel_err"`
	Drift  []DeviceDrift `json:"drift,omitempty"`
}

// MarkEvent flags a one-off occurrence: an IDR refresh ("idr") or a
// scene-cut-forced intra switch ("scene_cut").
type MarkEvent struct {
	Type    string `json:"type"`
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
}

// HealthEvent reports one device health-state transition of the failover
// state machine.
type HealthEvent struct {
	Type    string `json:"type"` // "health_transition"
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
	Device  int    `json:"device"`
	From    string `json:"from"`
	To      string `json:"to"`
	// Reason is the deadline point that tripped ("tau1", "tau2",
	// "tau_tot", "task") or "recovered" for the clean-streak return path.
	Reason string `json:"reason,omitempty"`
}

// RetryEvent reports a frame being re-run after a blown deadline.
type RetryEvent struct {
	Type    string `json:"type"` // "frame_retry"
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
	Attempt int    `json:"attempt"`
	// Point is the synchronization point whose budget was exceeded.
	Point string `json:"point,omitempty"`
	// Blamed lists the devices the deadline check held responsible.
	Blamed []int `json:"blamed,omitempty"`
}

// CheckEvent reports the schedule-invariant rules a frame broke when the
// checker runs in non-fatal (observe) mode.
type CheckEvent struct {
	Type    string   `json:"type"` // "check_violation"
	Node    string   `json:"node,omitempty"`
	Session string   `json:"session,omitempty"`
	Frame   int      `json:"frame"`
	Rules   []string `json:"rules"`
}

// CaptureEvent marks a post-mortem flight bundle being captured, with the
// bundle id it can be retrieved by at /debug/flight.
type CaptureEvent struct {
	Type    string `json:"type"` // "flight_capture"
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
	Reason  string `json:"reason"`
	Bundle  int    `json:"bundle"`
	Detail  string `json:"detail,omitempty"`
}
