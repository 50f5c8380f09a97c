package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightEntry is one frame's full schedule record as the flight recorder
// keeps it: the causal identity {node, session, frame, attempt}, then —
// through the embedded FrameRecord — the measured and predicted
// synchronization points, the distribution vectors of Algorithm 2 and the LP
// solver work the decision cost, and the executed task spans: everything
// needed to reconstruct the frame's Fig. 4 timeline after the fact.
type FlightEntry struct {
	Seq     uint64 `json:"seq"`
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	FrameRecord
	// Spans is the executed schedule of the successful attempt.
	Spans []Span `json:"spans,omitempty"`
}

// copyFrom makes e a deep copy of rec and spans, reusing the slice storage e
// already holds; lp is the cell a non-nil rec.LP is copied into.
func (e *FlightEntry) copyFrom(rec *FrameRecord, spans []Span, lp *LPSolveStats) {
	old := e.FrameRecord
	e.FrameRecord = *rec
	e.M = append(old.M[:0], rec.M...)
	e.L = append(old.L[:0], rec.L...)
	e.S = append(old.S[:0], rec.S...)
	e.Sigma = append(old.Sigma[:0], rec.Sigma...)
	e.SigmaR = append(old.SigmaR[:0], rec.SigmaR...)
	e.DeltaM = append(old.DeltaM[:0], rec.DeltaM...)
	e.DeltaL = append(old.DeltaL[:0], rec.DeltaL...)
	if rec.LP != nil {
		*lp = *rec.LP
		e.LP = lp
	}
	e.Spans = append(e.Spans[:0], spans...)
}

// LPSolveStats is the per-frame delta of the LP solver's cumulative
// counters (lp.Stats without importing it — telemetry stays a leaf).
type LPSolveStats struct {
	Solves           int `json:"solves,omitempty"`
	WarmSolves       int `json:"warm,omitempty"`
	ColdSolves       int `json:"cold,omitempty"`
	WarmRejects      int `json:"warm_rejects,omitempty"`
	Pivots           int `json:"pivots,omitempty"`
	DegeneratePivots int `json:"degenerate_pivots,omitempty"`
	BlandPivots      int `json:"bland_pivots,omitempty"`
}

// Incident is one exceptional occurrence the recorder keeps alongside the
// frame ring: a deadline retry, a health-state transition, a device loss,
// a failover re-lease. Incidents are the causal breadcrumbs a post-mortem
// bundle is read by.
type Incident struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"` // "frame_retry", "health_transition", "device_down", "re_lease", "node_down", ...
	Node    string `json:"node,omitempty"`
	Session string `json:"session,omitempty"`
	Frame   int    `json:"frame"`
	Device  int    `json:"device,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Bundle is an inspectable post-mortem snapshot: the frame ring and the
// incident ring as they stood when a capture trigger fired (a
// DeadlineError escaping retries, a device exclusion, a pool failover).
type Bundle struct {
	ID       int       `json:"id"`
	Reason   string    `json:"reason"`
	Node     string    `json:"node,omitempty"`
	Session  string    `json:"session,omitempty"`
	Frame    int       `json:"frame"`
	Detail   string    `json:"detail,omitempty"`
	Captured time.Time `json:"captured"`
	// Frames is the recorded window, oldest first.
	Frames []FlightEntry `json:"frames"`
	// Incidents is the incident window, oldest first.
	Incidents []Incident `json:"incidents"`
}

// FlightDoc is the document served at /debug/flight and consumed by
// feves-trace -flight: the live ring plus every captured bundle.
type FlightDoc struct {
	Frames    []FlightEntry `json:"frames"`
	Incidents []Incident    `json:"incidents"`
	Bundles   []Bundle      `json:"bundles"`
}

// defaultFlightFrames is the frame-ring depth when NewFlightRecorder is
// given a non-positive size.
const defaultFlightFrames = 64

// maxFlightBundles bounds retained post-mortem bundles; beyond it the
// oldest is dropped (the newest failure is the one being debugged).
const maxFlightBundles = 16

// FlightRecorder is a bounded, allocation-free record of the last N
// frames' schedules plus a small incident log. Commit reuses ring-slot
// storage, so the steady-state frame loop adds no allocations; Capture —
// the exceptional path — snapshots copies into a Bundle. All methods are
// safe for concurrent use across tenants.
type FlightRecorder struct {
	mu        sync.Mutex
	ring      []FlightEntry  // fixed-size slot array, slices reused in place
	lps       []LPSolveStats // lps[i] backs ring[i].LP
	next      int            // next slot to overwrite
	count     int            // committed entries, ≤ len(ring)
	seq       uint64         // global commit sequence
	incidents []Incident     // ring, same discipline
	incNext   int
	incCount  int
	bundles   []Bundle
	bundleSeq int
}

// NewFlightRecorder creates a recorder holding the last n frames
// (defaultFlightFrames when n <= 0) and an equally deep incident ring.
// Every slot is allocated up front so steady-state commits are free.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = defaultFlightFrames
	}
	return &FlightRecorder{
		ring:      make([]FlightEntry, n),
		lps:       make([]LPSolveStats, n),
		incidents: make([]Incident, n),
	}
}

// Depth returns the frame-ring capacity.
func (r *FlightRecorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Commit copies one frame — its summary and executed spans, under the
// reporting scope's node and session — into the next ring slot, reusing the
// slot's slice storage. rec and spans may alias caller scratch: the
// recorder owns only the copy. Nil-receiver safe.
func (r *FlightRecorder) Commit(node, session string, rec *FrameRecord, spans []Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	slot := &r.ring[r.next]
	slot.Seq, slot.Node, slot.Session = r.seq, node, session
	slot.copyFrom(rec, spans, &r.lps[r.next])
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
	r.mu.Unlock()
}

// Incident appends one incident record to the incident ring. This is the
// exceptional path; it needs no allocation discipline beyond the ring
// bound itself.
func (r *FlightRecorder) Incident(kind, node, session string, frame, device int, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	r.incidents[r.incNext] = Incident{
		Seq: r.seq, Kind: kind, Node: node, Session: session,
		Frame: frame, Device: device, Detail: detail,
	}
	r.incNext = (r.incNext + 1) % len(r.incidents)
	if r.incCount < len(r.incidents) {
		r.incCount++
	}
	r.mu.Unlock()
}

// framesLocked copies the committed window, oldest first. Called with
// r.mu held.
func (r *FlightRecorder) framesLocked() []FlightEntry {
	out := make([]FlightEntry, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.count; i++ {
		slot := &r.ring[(start+i)%len(r.ring)]
		e := FlightEntry{Seq: slot.Seq, Node: slot.Node, Session: slot.Session}
		e.copyFrom(&slot.FrameRecord, slot.Spans, new(LPSolveStats))
		out = append(out, e)
	}
	return out
}

// incidentsLocked copies the incident window, oldest first. Called with
// r.mu held.
func (r *FlightRecorder) incidentsLocked() []Incident {
	out := make([]Incident, 0, r.incCount)
	start := r.incNext - r.incCount
	if start < 0 {
		start += len(r.incidents)
	}
	for i := 0; i < r.incCount; i++ {
		out = append(out, r.incidents[(start+i)%len(r.incidents)])
	}
	return out
}

// Capture snapshots the current window into a post-mortem Bundle and
// retains it (dropping the oldest beyond maxFlightBundles). It returns a
// copy of the captured bundle. Nil-receiver safe (returns a zero bundle).
func (r *FlightRecorder) Capture(reason, node, session string, frame int, detail string) Bundle {
	if r == nil {
		return Bundle{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bundleSeq++
	b := Bundle{
		ID: r.bundleSeq, Reason: reason, Node: node, Session: session, Frame: frame,
		Detail: detail, Captured: time.Now().UTC(),
		Frames:    r.framesLocked(),
		Incidents: r.incidentsLocked(),
	}
	r.bundles = append(r.bundles, b)
	if len(r.bundles) > maxFlightBundles {
		r.bundles = r.bundles[len(r.bundles)-maxFlightBundles:]
	}
	return b
}

// Bundles returns the captured bundles, oldest first.
func (r *FlightRecorder) Bundles() []Bundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Bundle(nil), r.bundles...)
}

// Doc snapshots the live ring and every captured bundle — the
// /debug/flight document.
func (r *FlightRecorder) Doc() FlightDoc {
	if r == nil {
		return FlightDoc{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return FlightDoc{
		Frames:    r.framesLocked(),
		Incidents: r.incidentsLocked(),
		Bundles:   append([]Bundle(nil), r.bundles...),
	}
}

// WriteDoc writes the /debug/flight document as indented JSON.
func (r *FlightRecorder) WriteDoc(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Doc())
}
