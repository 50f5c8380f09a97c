package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Span is one executed schedule task (kernel, transfer or barrier) on a
// named resource, in seconds relative to the frame's start. It is the one
// span type of the repository, declared here because this package is a leaf:
// the Video Coding Manager fills it from the simulator's tasks
// (vcm.TaskSpan is an alias), the schedule checker validates it
// (check.Span is an alias), and the trace ring, the flight recorder and
// feves-trace carry it unconverted.
type Span struct {
	Resource string  `json:"resource"`
	Label    string  `json:"label"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// traceEvent is one Chrome trace-event record as exported. The format is
// the JSON "trace event format" that both chrome://tracing and Perfetto's
// legacy importer load: complete events (ph "X") with microsecond
// timestamps, instant events (ph "i") and metadata events (ph "M") naming
// processes and threads.
type traceEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	TS    float64                `json:"ts"` // microseconds
	Dur   float64                `json:"dur,omitempty"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid"`
	Scope string                 `json:"s,omitempty"` // instant-event scope
	Args  map[string]interface{} `json:"args,omitempty"`
}

// traceRec is the retained ring form of one trace event: fixed fields
// only, no per-event maps or boxing, so ring slots are reused without
// allocating. Args maps are materialized at Export time.
type traceRec struct {
	name    string
	phase   byte // 'X' complete, 'i' instant
	ts, dur float64
	pid     int
	tid     int
	frame   int
	attempt int
	// frame bars (tid == frameTID, phase 'X') carry the τ markers.
	isFrame        bool
	tau1ms, tau2ms float64
}

// DefaultTraceEventCap bounds the retained trace events of a TraceWriter
// created by NewTraceWriter: old enough history for a post-mortem
// snapshot (~2k frames of a typical schedule) without letting a
// long-serving process grow without bound. Oldest events are dropped
// first; Dropped counts them.
const DefaultTraceEventCap = 65536

// TraceWriter accumulates per-frame schedule spans into one whole-run
// timeline, bounded by a ring of the most recent events. Each simulated
// frame starts its own clock at zero; AddFrame shifts it by the
// caller-supplied offset so consecutive frames abut on a single time
// axis. Resources become named threads; tenants (sessions) become named
// processes, one Perfetto lane group per tenant.
type TraceWriter struct {
	mu      sync.Mutex
	cap     int
	ring    []traceRec // grows by append up to cap, then wraps
	next    int
	count   int
	dropped uint64

	procs     map[int]string // pid → process name
	procOrder []int
	nextPID   int
	pids      map[string]int         // session name → pid
	tids      map[int]map[string]int // pid → resource → tid
	laneOrder []lane

	dropCounter *Counter // optional feves_trace_events_dropped_total
}

type lane struct {
	pid int
	tid int
	res string
}

// NewTraceWriter creates an empty bounded trace (DefaultTraceEventCap).
func NewTraceWriter() *TraceWriter { return NewTraceWriterCap(DefaultTraceEventCap) }

// NewTraceWriterCap creates a trace retaining at most capEvents events
// (DefaultTraceEventCap when capEvents <= 0), oldest dropped first.
func NewTraceWriterCap(capEvents int) *TraceWriter {
	if capEvents <= 0 {
		capEvents = DefaultTraceEventCap
	}
	return &TraceWriter{
		cap:     capEvents,
		procs:   map[int]string{tracePID: "feves"},
		pids:    map[string]int{"": tracePID},
		tids:    map[int]map[string]int{},
		nextPID: tracePID,
	}
}

const (
	tracePID = 1 // unscoped (single-run) process lane
	frameTID = 0 // lane for whole-frame bars; resources start at 1
)

// SessionPID returns the process id of the named tenant lane, minting a
// new pid (and its Perfetto process name) on first use. The empty name is
// the unscoped lane, pid 1.
func (w *TraceWriter) SessionPID(name string) int {
	if w == nil {
		return tracePID
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if pid, ok := w.pids[name]; ok {
		return pid
	}
	w.nextPID++
	pid := w.nextPID
	w.pids[name] = pid
	w.procs[pid] = name
	w.procOrder = append(w.procOrder, pid)
	return pid
}

// tid returns the thread id of resource on the pid lane group, minting it
// on first use. Called with w.mu held.
func (w *TraceWriter) tid(pid int, resource string) int {
	m, ok := w.tids[pid]
	if !ok {
		m = map[string]int{}
		w.tids[pid] = m
	}
	id, ok := m[resource]
	if !ok {
		id = len(m) + 1
		m[resource] = id
		w.laneOrder = append(w.laneOrder, lane{pid: pid, tid: id, res: resource})
	}
	return id
}

// push appends one record to the ring, dropping the oldest past cap.
// Called with w.mu held.
func (w *TraceWriter) push(r traceRec) {
	if len(w.ring) < w.cap {
		w.ring = append(w.ring, r)
		w.next = len(w.ring) % w.cap
		w.count = len(w.ring)
		return
	}
	if w.count == w.cap { // full: overwrite the oldest
		w.dropped++
		if w.dropCounter != nil {
			w.dropCounter.Inc()
		}
	}
	w.ring[w.next] = r
	w.next = (w.next + 1) % w.cap
	if w.count < w.cap {
		w.count++
	}
}

// AddFrame appends one frame's schedule at the given run-time offset
// (both in seconds) on the pid lane group (<= 0 selects the unscoped
// lane): a whole-frame bar on the frame lane, one complete event per task
// span on its resource's lane, and τ1/τ2 instant markers. attempt tags a
// failover re-run's successful attempt (0 for a first-try frame).
func (w *TraceWriter) AddFrame(pid, frame, attempt int, offset, tau1, tau2, tot float64, spans []Span) {
	if pid <= 0 {
		pid = tracePID
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	us := func(s float64) float64 { return (offset + s) * 1e6 }
	w.push(traceRec{
		name: "frame", phase: 'X', ts: us(0), dur: tot * 1e6,
		pid: pid, tid: frameTID, frame: frame, attempt: attempt,
		isFrame: true, tau1ms: tau1 * 1e3, tau2ms: tau2 * 1e3,
	})
	for _, s := range spans {
		dur := (s.End - s.Start) * 1e6
		if dur < 0 {
			dur = 0
		}
		w.push(traceRec{
			name: s.Label, phase: 'X', ts: us(s.Start), dur: dur,
			pid: pid, tid: w.tid(pid, s.Resource), frame: frame, attempt: attempt,
		})
	}
	w.push(traceRec{name: "tau1", phase: 'i', ts: us(tau1), pid: pid, tid: frameTID, frame: frame, attempt: attempt})
	w.push(traceRec{name: "tau2", phase: 'i', ts: us(tau2), pid: pid, tid: frameTID, frame: frame, attempt: attempt})
}

// Frames returns the number of whole-frame bars currently retained.
func (w *TraceWriter) Frames() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	w.each(func(r *traceRec) {
		if r.isFrame {
			n++
		}
	})
	return n
}

// Dropped returns the number of events evicted by the ring bound so far.
func (w *TraceWriter) Dropped() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// Cap returns the retained-event bound.
func (w *TraceWriter) Cap() int { return w.cap }

// SetDropCounter mirrors ring evictions into a metrics counter
// (feves_trace_events_dropped_total). Idempotent; safe to call from
// several scopes sharing the ring.
func (w *TraceWriter) SetDropCounter(c *Counter) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.dropCounter = c
	w.mu.Unlock()
}

// each visits the retained records oldest first. Called with w.mu held.
func (w *TraceWriter) each(f func(*traceRec)) {
	if w.count < w.cap {
		for i := 0; i < w.count; i++ {
			f(&w.ring[i])
		}
		return
	}
	for i := 0; i < w.count; i++ {
		f(&w.ring[(w.next+i)%w.cap])
	}
}

// Export serializes the retained trace as a Chrome trace-event JSON
// object ({"traceEvents": [...], "displayTimeUnit": "ms"}), prefixed with
// the process/thread-name metadata that makes Perfetto label the lanes —
// one process per tenant, one thread per device resource. Export does not
// clear the ring, so a serving process can snapshot the live timeline at
// any point without shutting down.
func (w *TraceWriter) Export(out io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	meta := []traceEvent{
		{Name: "process_name", Phase: "M", PID: tracePID,
			Args: map[string]interface{}{"name": "feves"}},
		{Name: "thread_name", Phase: "M", PID: tracePID, TID: frameTID,
			Args: map[string]interface{}{"name": "frames"}},
		{Name: "thread_sort_index", Phase: "M", PID: tracePID, TID: frameTID,
			Args: map[string]interface{}{"sort_index": 0}},
	}
	for _, pid := range w.procOrder {
		meta = append(meta,
			traceEvent{Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]interface{}{"name": w.procs[pid]}},
			traceEvent{Name: "thread_name", Phase: "M", PID: pid, TID: frameTID,
				Args: map[string]interface{}{"name": "frames"}},
			traceEvent{Name: "thread_sort_index", Phase: "M", PID: pid, TID: frameTID,
				Args: map[string]interface{}{"sort_index": 0}})
	}
	for _, ln := range w.laneOrder {
		meta = append(meta,
			traceEvent{Name: "thread_name", Phase: "M", PID: ln.pid, TID: ln.tid,
				Args: map[string]interface{}{"name": ln.res}},
			traceEvent{Name: "thread_sort_index", Phase: "M", PID: ln.pid, TID: ln.tid,
				Args: map[string]interface{}{"sort_index": ln.tid}})
	}
	events := meta
	w.each(func(r *traceRec) {
		ev := traceEvent{
			Name: r.name, Phase: string(rune(r.phase)), TS: r.ts,
			PID: r.pid, TID: r.tid,
		}
		args := map[string]interface{}{"frame": r.frame}
		if r.attempt > 0 {
			args["attempt"] = r.attempt
		}
		switch r.phase {
		case 'X':
			ev.Dur = r.dur
			if r.isFrame {
				args["tau1_ms"] = r.tau1ms
				args["tau2_ms"] = r.tau2ms
			}
		case 'i':
			ev.Scope = "p"
		}
		ev.Args = args
		events = append(events, ev)
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}
	enc := json.NewEncoder(out)
	return enc.Encode(doc)
}

// Sessions lists the tenant lane names currently minted (excluding the
// unscoped lane), sorted for stable output.
func (w *TraceWriter) Sessions() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.pids)-1)
	for name := range w.pids {
		if name != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
