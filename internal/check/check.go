// Package check is the runtime correctness tooling of the FEVES
// reproduction: an end-to-end validator for the schedules the Load
// Balancer produces and the Video Coding Manager executes, plus a
// brute-force oracle that certifies the LP balancer's optimality on tiny
// instances.
//
// The validator asserts every invariant Algorithm 2 and the Fig. 4
// synchronization structure rely on:
//
//   - constraint (1): the m, l and s vectors are non-negative and each
//     sums to the frame's macroblock rows;
//   - placement rules: CPU cores never carry Δ transfer rows (they read
//     host memory directly), σ completion transfers exist only on
//     accelerators not running R*, and R* is mapped onto a single device;
//   - data-access consistency (constraints (16)/(17)): the Δm/Δl rows a
//     device fetches cover everything its SME range reads beyond what it
//     already holds from its own ME/INT ranges — reuse never reads a row
//     the device does not hold;
//   - constraints (14)/(15): the σ/σʳ split is non-negative and the σ part
//     fits the predicted τ2→τtot slack;
//   - the executed timeline honours the τ1/τ2/τtot dependency ordering: no
//     SME kernel before its ME motion vectors landed at τ1, no R* work
//     before τ2, all wave-1 work and outputs complete by τ1, and no two
//     tasks overlap on the same simulated resource;
//   - the deferred-transfer structure of Fig. 5: SF uploads never straddle
//     τ2 (they are Δl/σʳ/MC-prefetch work completing by τ2 or σ
//     completions starting at it), every σ promised by the distribution
//     appears on the wire in the τ2→τtot slack, and the R* device
//     prefetches its MC inputs inside [τ1, τ2] and its missing best-MV
//     field after τ2 but before the R* kernel launches.
//
// Validation is wired behind vcm.Manager.Check / core.Options.CheckSchedules
// / feves.Config.CheckSchedules and the -check CLI flag, so it runs in
// integration tests and the randomized property harness at zero cost when
// off.
package check

import (
	"fmt"
	"strings"

	"feves/internal/device"
	"feves/internal/sched"
	"feves/internal/telemetry"
)

// eps absorbs float64 accumulation error in the simulated timestamps.
const eps = 1e-9

// Span is one executed schedule task: the repository's one span type.
type Span = telemetry.Span

// Violation is one broken invariant. Rule is a stable identifier
// ("dist.sum", "time.sme-before-tau1", ...), Detail the human-readable
// specifics.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Error aggregates every violation found in one frame so a failure reports
// the complete picture, not just the first broken rule.
type Error struct {
	Violations []Violation
}

func (e *Error) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("check: %d invariant violation(s): %s",
		len(e.Violations), strings.Join(parts, "; "))
}

// violations collects rule breaches during one validation pass.
type violations struct {
	list []Violation
}

func (vs *violations) addf(rule, format string, args ...interface{}) {
	vs.list = append(vs.list, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

func (vs *violations) err() error {
	if len(vs.list) == 0 {
		return nil
	}
	return &Error{Violations: vs.list}
}

// Distribution validates the static Algorithm-2 invariants of a frame's
// row assignment: constraint (1) row sums and non-negativity, vector
// shapes, the CPU/GPU placement rules for Δ and σ, R* single-device
// placement, and the MS_BOUNDS/LS_BOUNDS data-access consistency. pm may
// be nil; when given, the σ split is additionally checked against the
// predicted τ2→τtot slack (constraints (14)/(15)).
func Distribution(topo sched.Topology, w device.Workload, d sched.Distribution, pm *sched.PerfModel) error {
	var vs violations
	p := topo.NumDevices()
	rows := w.Rows()

	for _, v := range []struct {
		name string
		vec  []int
	}{{"m", d.M}, {"l", d.L}, {"s", d.S}} {
		if len(v.vec) != p {
			vs.addf("dist.shape", "%s has %d entries for %d devices", v.name, len(v.vec), p)
			continue
		}
		sum := 0
		for i, x := range v.vec {
			if x < 0 {
				vs.addf("dist.negative", "%s[%d] = %d", v.name, i, x)
			}
			sum += x
		}
		if sum != rows {
			vs.addf("dist.sum", "%s sums to %d rows, want %d (constraint (1))", v.name, sum, rows)
		}
	}
	if d.RStarDev < 0 || d.RStarDev >= p {
		vs.addf("dist.rstar", "R* device %d out of range [0,%d)", d.RStarDev, p)
		return vs.err() // later rules index by RStarDev
	}
	if len(vs.list) > 0 {
		return vs.err() // later rules assume well-shaped vectors
	}

	// Δ placement and data-access consistency: the Δm/Δl fetched rows must
	// cover the SME range's reads beyond the device's own ME/INT holdings
	// (MS_BOUNDS/LS_BOUNDS, constraints (16)/(17)); CPU cores fetch nothing.
	needM := sched.MSBounds(d.M, d.S, topo.IsGPU)
	needL := sched.LSBounds(d.L, d.S, topo.IsGPU)
	for _, v := range []struct {
		name string
		vec  []int
		need []int
	}{{"Δm", d.DeltaM, needM}, {"Δl", d.DeltaL, needL}} {
		if v.vec == nil {
			continue // non-LP balancers with coinciding ranges omit Δ
		}
		if len(v.vec) != p {
			vs.addf("dist.shape", "%s has %d entries for %d devices", v.name, len(v.vec), p)
			continue
		}
		for i, x := range v.vec {
			switch {
			case x < 0:
				vs.addf("dist.negative", "%s[%d] = %d", v.name, i, x)
			case !topo.IsGPU(i) && x != 0:
				vs.addf("dist.cpu-delta", "CPU core %d carries %s = %d transfer rows", i, v.name, x)
			case x > rows:
				vs.addf("dist.delta-range", "%s[%d] = %d exceeds %d frame rows", v.name, i, x, rows)
			case topo.IsGPU(i) && x < v.need[i]:
				vs.addf("dist.stale-read", "device %d holds %s = %d rows but its SME range reads %d beyond its own (stale-buffer read)",
					i, v.name, x, v.need[i])
			}
		}
	}
	// Δ defaulting to nil is only sound when every SME range coincides with
	// the device's own ME/INT range (equidistant-style splits).
	for _, v := range []struct {
		name string
		vec  []int
		need []int
	}{{"Δm", d.DeltaM, needM}, {"Δl", d.DeltaL, needL}} {
		if v.vec != nil {
			continue
		}
		for i, n := range v.need {
			if n != 0 {
				vs.addf("dist.stale-read", "device %d has no %s vector but its SME range reads %d rows beyond its own",
					i, v.name, n)
			}
		}
	}

	// σ/σʳ placement (constraints (14)/(15)): non-negative, only meaningful
	// on accelerators, σ only off the R* device (which prefetches its SF
	// rows before MC instead), and never completing more rows than the
	// device is missing.
	for _, v := range []struct {
		name string
		vec  []int
	}{{"σ", d.Sigma}, {"σʳ", d.SigmaR}} {
		if v.vec == nil {
			continue
		}
		if len(v.vec) != p {
			vs.addf("dist.shape", "%s has %d entries for %d devices", v.name, len(v.vec), p)
			continue
		}
		for i, x := range v.vec {
			if x < 0 {
				vs.addf("dist.negative", "%s[%d] = %d", v.name, i, x)
			}
			if x > rows {
				vs.addf("dist.sigma-range", "%s[%d] = %d exceeds %d frame rows", v.name, i, x, rows)
			}
		}
	}
	if len(d.Sigma) == p {
		for i, x := range d.Sigma {
			if x > 0 && (!topo.IsGPU(i) || i == d.RStarDev) {
				vs.addf("dist.sigma-placement", "σ[%d] = %d on a device that runs no deferred SF completion", i, x)
			}
		}
	}
	if len(d.Sigma) == p && len(d.SigmaR) == p && len(d.DeltaL) == p {
		for i := 0; i < p; i++ {
			if !topo.IsGPU(i) || i == d.RStarDev {
				continue
			}
			missing := rows - d.L[i]
			if got := d.Sigma[i] + d.SigmaR[i]; got > missing {
				vs.addf("dist.sigma-overrun", "device %d completes σ+σʳ = %d SF rows but misses at most %d", i, got, missing)
			}
		}
	}

	// Constraint (14): the σ part must fit the predicted τ2→τtot slack.
	// Only LP distributions carry predictions; one row of tolerance absorbs
	// the integer split.
	if pm != nil && d.PredTot > 0 && len(d.Sigma) == p {
		slack := d.PredTot - d.PredTau2
		for i, x := range d.Sigma {
			if x == 0 || !topo.IsGPU(i) {
				continue
			}
			per := pm.T(i, sched.SFh2d)
			if t := float64(x) * per; t > slack+per+eps {
				vs.addf("dist.sigma-slack", "device %d σ transfer of %d rows takes %.3g s but the τ2→τtot slack is %.3g s",
					i, x, t, slack)
			}
		}
	}
	return vs.err()
}

// Frame validates one executed inter-frame end to end: the static
// distribution invariants plus the τ1/τ2/τtot dependency ordering of the
// executed timeline. spans is the task list the simulator ran (kernels,
// transfers, barriers), tau1/tau2/tot the measured synchronization points.
func Frame(topo sched.Topology, w device.Workload, d sched.Distribution,
	pm *sched.PerfModel, spans []Span, tau1, tau2, tot float64) error {

	var vs violations
	if err := Distribution(topo, w, d, pm); err != nil {
		vs.list = append(vs.list, err.(*Error).Violations...)
	}
	checkTimeline(&vs, spans, tau1, tau2, tot)
	checkDeferredTransfers(&vs, topo, w, d, spans, tau1, tau2)
	return vs.err()
}

// checkDeferredTransfers asserts the σ-window and R*-prefetch structure
// of Fig. 5 on the executed timeline. The single copy engine serializes
// every SF upload into one of two disjoint windows — Δl/σʳ/MC-prefetch
// work completing by τ2, σ completions at or after τ2 — and the R*
// device must prefetch its MC inputs (CF/SF) inside the τ1→τ2 slack and
// its missing best-MV field after τ2 but before the R* kernel launches.
func checkDeferredTransfers(vs *violations, topo sched.Topology, w device.Workload,
	d sched.Distribution, spans []Span, tau1, tau2 float64) {

	if len(spans) == 0 || len(d.M) != topo.NumDevices() {
		return // distribution-only validation, or shape already flagged
	}
	p := topo.NumDevices()
	rows := w.Rows()
	rstar := d.RStarDev

	// Per-device evidence gathered in one pass over the spans.
	type devEv struct {
		sigmaSF    bool    // SF.h2d starting at/after τ2
		mcCF, mcSF bool    // CF/SF.h2d inside [τ1, τ2] (R* MC prefetch window)
		mvPrefetch bool    // MV.h2d starting at/after τ2
		mvPreEnd   float64 // latest end of such an MV.h2d
		rstarStart float64 // R* kernel start (NaN if absent)
	}
	ev := make([]devEv, p)
	for i := range ev {
		ev[i].rstarStart = -1
	}
	for _, s := range spans {
		kind, dev := kindOf(s.Label)
		if dev < 0 || dev >= p {
			continue
		}
		dur := s.End - s.Start
		switch kind {
		case "SF.h2d":
			if s.Start < tau2-eps && s.End > tau2+eps {
				vs.addf("time.sf-straddle-tau2",
					"SF.h2d on device %d spans τ2 (%.6g → %.6g, τ2 %.6g): SF uploads either complete by τ2 or are σ completions after it",
					dev, s.Start, s.End, tau2)
			}
			if s.Start >= tau2-eps && dur > eps {
				ev[dev].sigmaSF = true
				if len(d.Sigma) == p && d.Sigma[dev] == 0 {
					vs.addf("time.sigma-unexpected",
						"SF.h2d on device %d starts at %.6g in the τ2→τtot slack but σ[%d] = 0", dev, s.Start, dev)
				}
			}
			if s.Start >= tau1-eps && s.End <= tau2+eps {
				ev[dev].mcSF = true
			}
		case "CF.h2d":
			if s.Start >= tau1-eps && s.End <= tau2+eps {
				ev[dev].mcCF = true
			}
			if dev == rstar && s.Start >= tau1-eps && s.End > tau2+eps {
				vs.addf("time.rstar-mc-prefetch",
					"CF MC prefetch on R* device %d runs %.6g → %.6g past τ2 %.6g (MC would stall in the R* window)",
					dev, s.Start, s.End, tau2)
			}
		case "MV.h2d":
			if dev == rstar {
				if s.Start < tau2-eps && s.End > tau2+eps {
					vs.addf("time.rstar-mv-prefetch",
						"MV.h2d on R* device %d spans τ2 (%.6g → %.6g, τ2 %.6g)", dev, s.Start, s.End, tau2)
				}
				if s.Start >= tau2-eps && dur > eps {
					ev[dev].mvPrefetch = true
					if s.End > ev[dev].mvPreEnd {
						ev[dev].mvPreEnd = s.End
					}
				}
			}
		case "R*":
			if ev[dev].rstarStart < 0 || s.Start < ev[dev].rstarStart {
				ev[dev].rstarStart = s.Start
			}
		}
	}

	// σ completions promised by the distribution must appear on the wire.
	if len(d.Sigma) == p {
		for i, x := range d.Sigma {
			if x > 0 && !ev[i].sigmaSF {
				vs.addf("time.sigma-missing",
					"σ[%d] = %d SF rows deferred to the τ2→τtot slack but device %d runs no SF.h2d at/after τ2 %.6g",
					i, x, i, tau2)
			}
		}
	}

	// R* prefetch structure (GPU-centric placement only: CPU cores read
	// host memory directly and transfer nothing).
	if topo.IsGPU(rstar) && ev[rstar].rstarStart >= 0 {
		if len(d.DeltaM) == p && rows-d.M[rstar]-d.DeltaM[rstar] > 0 && !ev[rstar].mcCF {
			vs.addf("time.rstar-mc-prefetch",
				"R* device %d misses %d CF rows for MC but runs no CF.h2d inside [τ1 %.6g, τ2 %.6g]",
				rstar, rows-d.M[rstar]-d.DeltaM[rstar], tau1, tau2)
		}
		if len(d.DeltaL) == p && rows-d.L[rstar]-d.DeltaL[rstar] > 0 && !ev[rstar].mcSF {
			vs.addf("time.rstar-mc-prefetch",
				"R* device %d misses %d SF rows for MC but runs no SF.h2d inside [τ1 %.6g, τ2 %.6g]",
				rstar, rows-d.L[rstar]-d.DeltaL[rstar], tau1, tau2)
		}
		if rows-d.S[rstar] > 0 {
			switch {
			case !ev[rstar].mvPrefetch:
				vs.addf("time.rstar-mv-prefetch",
					"R* device %d misses %d best-MV rows but runs no MV.h2d at/after τ2 %.6g",
					rstar, rows-d.S[rstar], tau2)
			case ev[rstar].mvPreEnd > ev[rstar].rstarStart+eps:
				vs.addf("time.rstar-mv-prefetch",
					"R* kernel on device %d starts at %.6g before its MV prefetch lands at %.6g",
					rstar, ev[rstar].rstarStart, ev[rstar].mvPreEnd)
			}
		}
	}
}

// kindOf splits a task label ("SME@2", "CF.h2d@0", "tau1") into its kind
// and device index (-1 for host barriers).
func kindOf(label string) (kind string, dev int) {
	at := strings.LastIndexByte(label, '@')
	if at < 0 {
		return label, -1
	}
	n := 0
	for _, c := range label[at+1:] {
		if c < '0' || c > '9' {
			return label, -1
		}
		n = n*10 + int(c-'0')
	}
	return label[:at], n
}

// checkTimeline asserts the dependency ordering of Fig. 4 on the executed
// task spans.
func checkTimeline(vs *violations, spans []Span, tau1, tau2, tot float64) {
	if tau1 > tau2+eps || tau2 > tot+eps {
		vs.addf("time.order", "synchronization points out of order: τ1 %.6g, τ2 %.6g, τtot %.6g", tau1, tau2, tot)
	}
	byResource := map[string][]Span{}
	for _, s := range spans {
		if s.End < s.Start-eps {
			vs.addf("time.span", "task %s on %s ends before it starts (%.6g → %.6g)", s.Label, s.Resource, s.Start, s.End)
		}
		if s.End > tot+eps {
			vs.addf("time.makespan", "task %s on %s ends at %.6g after τtot %.6g", s.Label, s.Resource, s.End, tot)
		}
		byResource[s.Resource] = append(byResource[s.Resource], s)

		kind, dev := kindOf(s.Label)
		switch kind {
		case "ME", "INT":
			// Wave-1 kernels feed the τ1 assembly: their MVs/SF parts must
			// have landed before any SME consumes them.
			if s.End > tau1+eps {
				vs.addf("time."+strings.ToLower(kind)+"-past-tau1",
					"%s kernel on device %d ends at %.6g after τ1 %.6g", kind, dev, s.End, tau1)
			}
		case "SME":
			// No SME before its ME motion vectors landed at the τ1 assembly.
			if s.Start < tau1-eps {
				vs.addf("time.sme-before-tau1",
					"SME kernel on device %d starts at %.6g before τ1 %.6g (ME MVs not assembled yet)", dev, s.Start, tau1)
			}
			if s.End > tau2+eps {
				vs.addf("time.sme-past-tau2",
					"SME kernel on device %d ends at %.6g after τ2 %.6g", dev, s.End, tau2)
			}
		case "R*":
			// The R* group needs the complete best-MV field: nothing before τ2.
			if s.Start < tau2-eps {
				vs.addf("time.rstar-before-tau2",
					"R* work on device %d starts at %.6g before τ2 %.6g", dev, s.Start, tau2)
			}
		case "MV.d2h", "SF.d2h":
			// Wave-1 outputs: anything started inside the τ1 phase must have
			// landed on the host by τ1 (the assembly reads them).
			if s.Start < tau1-eps && s.End > tau1+eps {
				vs.addf("time.output-past-tau1",
					"%s on device %d spans τ1 (%.6g → %.6g, τ1 %.6g)", kind, dev, s.Start, s.End, tau1)
			}
		}
	}
	// Resource exclusivity: the simulated compute and copy engines are
	// serial; overlapping tasks mean the schedule double-booked a device.
	for res, list := range byResource {
		for i := 0; i < len(list); i++ {
			for j := i + 1; j < len(list); j++ {
				a, b := list[i], list[j]
				if a.Start < b.End-eps && b.Start < a.End-eps &&
					a.End-a.Start > eps && b.End-b.Start > eps {
					vs.addf("time.overlap", "tasks %s and %s overlap on %s ([%.6g,%.6g) vs [%.6g,%.6g))",
						a.Label, b.Label, res, a.Start, a.End, b.Start, b.End)
				}
			}
		}
	}
}
