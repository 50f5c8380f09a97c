package vcm

import (
	"fmt"
	"strings"
)

// Deadline arms per-sync-point budget enforcement on one frame of an
// EncodeFrames window: the measured τ1/τ2/τtot of the simulated schedule
// must stay within the given budgets (simulated seconds; zero disables that
// point, so the zero Deadline never fails a frame). The budgets are
// derived by the core layer from the LP's predicted timeline times a slack
// factor. TaskBudget additionally bounds any single kernel invocation —
// the safety net that catches a stalled device during the equidistant
// initialization frames, when no LP prediction exists yet.
type Deadline struct {
	Tau1, Tau2, Tot float64
	TaskBudget      float64
}

// DeadlineError reports a blown budget: which synchronization point, by
// how much, and which devices the blame heuristic points at (the ones
// whose observed kernel slowdown factor is an outlier). An empty Blamed
// list means the schedule was late without any single device standing out
// — an LP misprediction rather than a device fault.
type DeadlineError struct {
	Frame            int
	Point            string // "tau1", "tau2", "tau_tot" or "task"
	Measured, Budget float64
	// Blamed lists the suspect device indices (platform numbering).
	Blamed []int
	// MaxFactor[i] is device i's largest observed kernel slowdown factor
	// this frame (jitter × perturbation × faults), the blame evidence.
	MaxFactor []float64
}

// Error implements error.
func (e *DeadlineError) Error() string {
	who := "no single device to blame"
	if len(e.Blamed) > 0 {
		parts := make([]string, len(e.Blamed))
		for i, d := range e.Blamed {
			parts[i] = fmt.Sprintf("%d (×%.3g)", d, e.MaxFactor[d])
		}
		who = "blaming device(s) " + strings.Join(parts, ", ")
	}
	return fmt.Sprintf("vcm: frame %d blew the %s deadline: %.4g s > budget %.4g s; %s",
		e.Frame, e.Point, e.Measured, e.Budget, who)
}

// blame marks the devices whose slowdown factor is an outlier: at least
// 1.5× nominal and within half of the worst offender. Ordinary jitter
// (a few percent) never qualifies, so a merely mispredicted frame yields
// an empty list.
func blame(maxFac []float64) []int {
	worst := 0.0
	for _, f := range maxFac {
		if f > worst {
			worst = f
		}
	}
	var out []int
	for i, f := range maxFac {
		if f >= 1.5 && f >= worst/2 {
			out = append(out, i)
		}
	}
	return out
}

// check evaluates the budgets against one frame's measurements. maxFac and
// maxDur are per-device maxima of the frame's kernel slowdown factors and
// kernel durations.
func (dl Deadline) check(frame int, t1, t2, tot float64, maxFac, maxDur []float64) *DeadlineError {
	fail := func(point string, meas, budget float64) *DeadlineError {
		return &DeadlineError{
			Frame: frame, Point: point, Measured: meas, Budget: budget,
			Blamed: blame(maxFac), MaxFactor: maxFac,
		}
	}
	if dl.TaskBudget > 0 {
		for i, d := range maxDur {
			if d > dl.TaskBudget {
				e := fail("task", d, dl.TaskBudget)
				// A single over-budget task is direct evidence against its
				// device even if the factor heuristic missed it.
				if !contains(e.Blamed, i) {
					e.Blamed = append(e.Blamed, i)
				}
				return e
			}
		}
	}
	switch {
	case dl.Tau1 > 0 && t1 > dl.Tau1:
		return fail("tau1", t1, dl.Tau1)
	case dl.Tau2 > 0 && t2 > dl.Tau2:
		return fail("tau2", t2, dl.Tau2)
	case dl.Tot > 0 && tot > dl.Tot:
		return fail("tau_tot", tot, dl.Tot)
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
