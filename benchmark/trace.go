package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent indexes the span that caused
// it (-1 for a root); ID is shared by every span of one frame, job or
// stream; Lane is the client goroutine that recorded it.
type span struct {
	Name       string
	ID         string
	Lane       int
	Parent     int
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing, so the same driver code runs traced and untraced.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Lane: lane, Parent: parent, Start: now, End: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// setID gives spans opened before their request had an identifier — the
// job or stream ID comes back with the submit reply — the ID the rest of
// the request's spans carry.
func (t *tracer) setID(id string, spans ...int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, i := range spans {
		t.spans[i].ID = id
	}
	t.mu.Unlock()
}

// add records a span whose interval is already known — a phase the
// program under test timestamps itself (queue wait, run, SchedOverhead).
func (t *tracer) add(name, id string, lane, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Lane: lane, Parent: parent,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover (overlapping children count
// once; a child is clipped to its parent's interval).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - cover(spans, children[i], s.Start, s.End)
	}
	return self
}

// cover is the length of the union of the given spans' intervals inside
// [lo, hi].
func cover(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// totalTimes sums span durations per name.
func totalTimes(spans []span) map[string]time.Duration {
	tot := make(map[string]time.Duration)
	for _, s := range spans {
		tot[s.Name] += s.End - s.Start
	}
	return tot
}

// printSpanTable prints, per span name, how many spans the pass recorded,
// their total time and their self time.
func printSpanTable(w io.Writer, spans []span) {
	total, self := totalTimes(spans), selfTimes(spans)
	count := make(map[string]int)
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(count))
	for n := range count {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(w, "%-20s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-20s %8d %12.3f %12.3f\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (Perfetto and
// chrome://tracing load it): one complete event per span, one thread lane
// per client goroutine.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"trace_id": s.ID, "span": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
