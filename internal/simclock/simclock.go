// Package simclock is a deterministic discrete-event engine used to model
// heterogeneous-device timelines in the FEVES reproduction. A simulation
// consists of resources (device compute streams and copy engines) that
// execute tasks serially in submission order — the semantics of CUDA
// streams — with explicit cross-task dependencies, from which the engine
// derives start/end times and the overall makespan.
//
// The engine is virtual-time only: task durations come from calibrated
// device profiles, so experiment results are reproducible on any machine.
// Tasks carry no payload: the real kernels of a functional encode run in
// codec.RunInter over the row ranges the schedule assigned.
package simclock

import (
	"errors"
	"fmt"
)

// Time is virtual time in seconds.
type Time = float64

// ErrDeadlock is returned by Run when dependencies and per-resource FIFO
// order are mutually inconsistent.
var ErrDeadlock = errors.New("simclock: deadlock (circular dependency across resource queues)")

// Resource is a serial execution unit: it runs its tasks one at a time in
// the order they were submitted.
type Resource struct {
	Name  string
	queue []*Task
	head  int
	avail Time
}

// Task is one unit of work on a resource.
type Task struct {
	Label string
	Res   *Resource
	Dur   Time
	Start Time
	End   Time

	deps []*Task
	done bool
}

// Done reports whether the task has executed.
func (t *Task) Done() bool { return t.done }

// Sim is one simulation instance. The zero value is not usable; create with
// New.
type Sim struct {
	resources []*Resource
	tasks     []*Task
	free      []*Task // recycled by Reset, reissued by Add
	now       Time
}

// New creates an empty simulation whose clock starts at the given origin
// (tasks never start before it).
func New(origin Time) *Sim { return &Sim{now: origin} }

// Origin returns the simulation start time.
func (s *Sim) Origin() Time { return s.now }

// Reset rewinds the simulation to an empty state at the given origin,
// keeping every registered resource (with an empty queue) and recycling
// all task objects into a free list that Add draws from — so a caller
// running one simulation per frame reaches a steady state with no
// allocations. Task pointers obtained before the Reset are invalid
// afterwards: they may be reissued, re-labelled, by later Adds.
func (s *Sim) Reset(origin Time) {
	s.free = append(s.free, s.tasks...)
	s.tasks = s.tasks[:0]
	for _, r := range s.resources {
		r.queue = r.queue[:0]
		r.head = 0
		r.avail = origin
	}
	s.now = origin
}

// NewResource registers a serial resource.
func (s *Sim) NewResource(name string) *Resource {
	r := &Resource{Name: name, avail: s.now}
	s.resources = append(s.resources, r)
	return r
}

// Add submits a task of the given duration to a resource, to run after all
// deps have finished (nil deps are ignored). Submission order fixes the
// execution order on each resource.
func (s *Sim) Add(res *Resource, label string, dur Time, deps ...*Task) *Task {
	if res == nil {
		panic("simclock: Add on nil resource")
	}
	if dur < 0 {
		panic(fmt.Sprintf("simclock: negative duration %v for %q", dur, label))
	}
	var t *Task
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
		// Keep the recycled deps backing array; the struct literal below
		// would discard it.
		deps0 := t.deps[:0]
		*t = Task{Label: label, Res: res, Dur: dur, deps: deps0}
	} else {
		t = &Task{Label: label, Res: res, Dur: dur}
	}
	for _, d := range deps {
		if d != nil {
			t.deps = append(t.deps, d)
		}
	}
	res.queue = append(res.queue, t)
	s.tasks = append(s.tasks, t)
	return t
}

// Run executes every submitted task and returns the makespan (the latest
// end time). It is deterministic: ties are broken by resource registration
// order.
func (s *Sim) Run() (Time, error) {
	remaining := len(s.tasks)
	makespan := s.now
	for remaining > 0 {
		progress := false
		for _, r := range s.resources {
			for r.head < len(r.queue) {
				t := r.queue[r.head]
				ready := true
				start := r.avail
				for _, d := range t.deps {
					if !d.done {
						ready = false
						break
					}
					if d.End > start {
						start = d.End
					}
				}
				if !ready {
					break
				}
				t.Start = start
				t.End = start + t.Dur
				r.avail = t.End
				t.done = true
				r.head++
				remaining--
				progress = true
				if t.End > makespan {
					makespan = t.End
				}
			}
		}
		if !progress {
			return 0, ErrDeadlock
		}
	}
	return makespan, nil
}

// MaxEnd returns the latest end time among the given tasks (the paper's
// synchronization points τ1, τ2 are computed this way); nil tasks are
// skipped. All tasks must have run.
func MaxEnd(tasks ...*Task) Time {
	var m Time
	for _, t := range tasks {
		if t == nil {
			continue
		}
		if !t.done {
			panic(fmt.Sprintf("simclock: MaxEnd on unfinished task %q", t.Label))
		}
		if t.End > m {
			m = t.End
		}
	}
	return m
}

// Tasks returns all submitted tasks in submission order (for tracing).
func (s *Sim) Tasks() []*Task { return s.tasks }
