package sched

import (
	"fmt"
	"sync"
)

// HealthState is a device's position in the failover state machine.
type HealthState int

const (
	// Healthy devices participate fully in the balancer.
	Healthy HealthState = iota
	// Degraded devices blew a deadline recently; one more miss excludes
	// them, sustained clean frames recover them.
	Degraded
	// Excluded devices are removed from the topology: the LP forces their
	// rows to zero and the performance model quarantines their samples.
	Excluded
)

// String names the state as it appears in telemetry events.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Excluded:
		return "excluded"
	}
	return fmt.Sprintf("HealthState(%d)", int(s))
}

// Health tracks per-device health across frames: healthy → degraded on a
// deadline miss, degraded → excluded on a repeat miss, degraded → healthy
// after RecoverAfter consecutive clean frames. Exclusion is sticky — a
// device that went away does not silently come back — and the tracker
// refuses to exclude the last surviving device so the stream can always
// make progress. All methods are safe for concurrent use (the serve layer
// reads health while sessions report misses).
type Health struct {
	// RecoverAfter is the number of consecutive clean frames that return
	// a degraded device to healthy (default 2).
	RecoverAfter int

	mu     sync.Mutex
	states []HealthState
	clean  []int // consecutive clean frames while degraded
}

// NewHealth creates a tracker for n devices, all healthy.
func NewHealth(n int) *Health {
	if n <= 0 {
		panic("sched: Health needs at least one device")
	}
	return &Health{states: make([]HealthState, n), clean: make([]int, n)}
}

// NumDevices returns the tracked device count.
func (h *Health) NumDevices() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.states)
}

// State returns device dev's current state.
func (h *Health) State(dev int) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.states[dev]
}

// Down returns the exclusion mask in Topology.Down form: true for every
// excluded device. The slice is a fresh copy.
func (h *Health) Down() []bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	down := make([]bool, len(h.states))
	for i, s := range h.states {
		down[i] = s == Excluded
	}
	return down
}

// NumUp counts devices not excluded.
func (h *Health) NumUp() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.numUpLocked()
}

func (h *Health) numUpLocked() int {
	up := 0
	for _, s := range h.states {
		if s != Excluded {
			up++
		}
	}
	return up
}

// Miss records a deadline miss on device dev and returns the transition it
// caused: healthy → degraded on the first strike, degraded → excluded on
// the second. The last surviving device is never excluded — it stays
// degraded so the run can limp on rather than abort.
func (h *Health) Miss(dev int) (from, to HealthState, changed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from = h.states[dev]
	to = from
	switch from {
	case Healthy:
		to = Degraded
	case Degraded:
		if h.numUpLocked() > 1 {
			to = Excluded
		}
	}
	h.states[dev] = to
	h.clean[dev] = 0
	return from, to, to != from
}

// Clean records that device dev met its deadlines this frame. A degraded
// device recovers to healthy after RecoverAfter consecutive clean frames;
// the transition is returned so callers can emit it.
func (h *Health) Clean(dev int) (from, to HealthState, changed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from = h.states[dev]
	to = from
	if from == Degraded {
		h.clean[dev]++
		after := h.RecoverAfter
		if after <= 0 {
			after = 2
		}
		if h.clean[dev] >= after {
			to = Healthy
			h.clean[dev] = 0
		}
	}
	h.states[dev] = to
	return from, to, to != from
}

// Readmit returns an excluded device to degraded (probation): it will be
// scheduled again but one miss re-excludes it. Used when a transient fault
// window is known to have ended.
func (h *Health) Readmit(dev int) (from, to HealthState, changed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	from = h.states[dev]
	to = from
	if from == Excluded {
		to = Degraded
	}
	h.states[dev] = to
	h.clean[dev] = 0
	return from, to, to != from
}
