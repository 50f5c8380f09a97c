package lp

import (
	"errors"
	"math"
)

// warmPivotTol rejects a warm-start refactorization whose pivot element
// is too small to divide by safely. Rows are equilibrated to roughly
// unit scale before the pivot sequence runs, so the threshold is
// effectively relative.
const warmPivotTol = 1e-8

// warmFeasTol bounds the residual infeasibility tolerated after
// re-pivoting the previous basis into the new tableau. Basic values in
// [-warmFeasTol, 0) are elimination roundoff and are clamped to zero;
// anything more negative means the old basis is primal infeasible for
// the new data and the solve falls back to the cold two-phase path.
const warmFeasTol = 1e-7

// blandTrigger is the number of consecutive degenerate pivots tolerated
// under Dantzig pricing before simplex switches to Bland's rule.
// Non-degenerate pivots strictly decrease the objective (finitely many
// vertices), and a pure Bland run terminates, so the combination cannot
// cycle; the counter resets on every non-degenerate pivot so the fast
// pricing rule does nearly all the work in practice.
const blandTrigger = 32

// iterLimit caps total simplex iterations per phase as a final backstop.
const iterLimit = 20000

// Pricing selects the simplex entering-variable rule.
type Pricing int

const (
	// PricingDantzig enters the most negative reduced cost, switching to
	// Bland's rule after blandTrigger consecutive degenerate pivots (and
	// back on the next improving pivot). The fast default.
	PricingDantzig Pricing = iota
	// PricingBland always enters the smallest eligible index. Slower,
	// but its vertex selection among alternative optima is a stable
	// canonical choice — callers whose downstream behaviour depends on
	// *which* optimal vertex is returned (the frame balancer) use it so
	// that solver upgrades do not silently reshuffle tied solutions.
	PricingBland
)

// Stats counts the work a Solver has done since creation.
type Stats struct {
	Solves           int // Solve calls
	WarmSolves       int // solves completed from the previous basis
	ColdSolves       int // full two-phase solves
	WarmRejects      int // warm attempts abandoned mid-flight (singular or infeasible basis)
	Pivots           int // total simplex pivots, both phases
	DegeneratePivots int // pivots with a (near-)zero step length
	BlandPivots      int // pivots taken under the anti-cycling rule
}

// Solver solves a sequence of related linear programs, retaining its
// tableau, basis, and scratch vectors between calls. When a problem has
// the same shape as the previous successful solve — same variable count
// and the same normalized constraint senses in the same order — the
// solver warm-starts phase 2 directly from the previous optimal basis
// and skips phase 1 entirely; any failure along the warm path (singular
// refactorization, basis infeasible for the new data) falls back to the
// cold two-phase solve, so results never depend on warm-start success.
//
// The zero value is ready to use. A Solver is not safe for concurrent
// use; give each goroutine its own.
type Solver struct {
	// Pricing selects the entering rule (default PricingDantzig). Change
	// it only between solves.
	Pricing Pricing

	stats Stats

	// Warm-start state recorded after each successful solve.
	haveBasis bool
	wn, wm    int
	wsens     []Sense // normalized senses of the recorded solve
	wbasis    []int

	// Normalized problem scratch (b ≥ 0, rows equilibrated).
	nrows []float64 // m×n, row-major
	nrhs  []float64
	nsens []Sense

	// Tableau scratch. t's row headers alias tbuf.
	tbuf  []float64
	t     [][]float64
	basis []int
	red   []float64
	cost  []float64
	x     []float64
	nz    []int32 // non-zero columns of the current pivot row
}

// NewSolver returns an empty solver. Equivalent to new(Solver).
func NewSolver() *Solver { return &Solver{} }

// Stats returns cumulative counters since the solver was created.
func (s *Solver) Stats() Stats { return s.stats }

// Reset drops the warm-start state so the next Solve runs cold. Scratch
// memory and statistics are retained.
func (s *Solver) Reset() { s.haveBasis = false }

// Solve optimizes p. The returned solution slice is owned by the solver
// and overwritten by the next call; copy it to retain it.
func (s *Solver) Solve(p *Problem) ([]float64, float64, error) {
	s.stats.Solves++
	n, m := p.n, p.NumConstraints()
	if m == 0 {
		// Unconstrained over x ≥ 0: the optimum sits on the lower bound
		// of every variable, and any strictly negative cost — however
		// small — makes the problem unbounded below. No epsilon here:
		// the costs are the caller's exact values, not tableau
		// arithmetic subject to roundoff.
		s.haveBasis = false
		for _, ci := range p.c {
			if ci < 0 {
				return nil, 0, ErrUnbounded
			}
		}
		s.x = growF(s.x, n)
		for i := range s.x {
			s.x[i] = 0
		}
		return s.x, 0, nil
	}

	// Normalize into scratch: b ≥ 0 (flipping row signs and LE↔GE as
	// needed), rows equilibrated to roughly unit scale.
	s.nrows = growF(s.nrows, m*n)
	s.nrhs = growF(s.nrhs, m)
	s.nsens = growSens(s.nsens, m)
	for i := 0; i < m; i++ {
		row := s.nrows[i*n : (i+1)*n]
		copy(row, p.row(i))
		s.nsens[i] = p.sens[i]
		s.nrhs[i] = p.rhs[i]
		if s.nrhs[i] < 0 {
			for j := range row {
				row[j] = -row[j]
			}
			s.nrhs[i] = -s.nrhs[i]
			switch s.nsens[i] {
			case LE:
				s.nsens[i] = GE
			case GE:
				s.nsens[i] = LE
			}
		}
		equilibrate(row, &s.nrhs[i])
	}

	if s.canWarmStart(n, m) {
		x, obj, err, ok := s.warmSolve(p)
		if ok {
			s.stats.WarmSolves++
			return x, obj, err
		}
		s.stats.WarmRejects++
	}
	s.stats.ColdSolves++
	return s.coldSolve(p)
}

// canWarmStart reports whether the previous optimal basis applies to a
// problem with n variables and m constraints. Only the column layout has
// to line up for the recorded basis to be meaningful: the dimensions,
// and which rows are equations (no slack) versus inequalities (one slack
// each, in row order). An LE row whose normalization flipped to GE since
// the basis was recorded merely negates that slack column — the
// refactorization and the feasibility check decide whether the basis
// still works, which is exactly the warm/cold decision.
func (s *Solver) canWarmStart(n, m int) bool {
	if !s.haveBasis || s.wn != n || s.wm != m {
		return false
	}
	for i := 0; i < m; i++ {
		if (s.wsens[i] == EQ) != (s.nsens[i] == EQ) {
			return false
		}
	}
	return true
}

// ensureTableau sizes the tableau to m rows of w entries each, with row
// headers aliasing one flat buffer.
func (s *Solver) ensureTableau(m, w int) {
	if cap(s.tbuf) < m*w {
		s.tbuf = make([]float64, m*w)
	} else {
		s.tbuf = s.tbuf[:m*w]
	}
	if cap(s.t) < m {
		s.t = make([][]float64, m)
	} else {
		s.t = s.t[:m]
	}
	for i := 0; i < m; i++ {
		s.t[i] = s.tbuf[i*w : (i+1)*w]
	}
}

// loadStructural fills tableau row i with the normalized constraint row,
// zeroed padding columns, and the rhs in the last entry.
func (s *Solver) loadStructural(n, m, ncols int) {
	for i := 0; i < m; i++ {
		ti := s.t[i]
		copy(ti, s.nrows[i*n:(i+1)*n])
		for j := n; j < ncols; j++ {
			ti[j] = 0
		}
		ti[ncols] = s.nrhs[i]
	}
}

// warmSolve re-pivots the previous optimal basis into a tableau built
// from the new data and runs phase 2 from there. ok=false means the warm
// attempt was abandoned and the caller must run the cold path; ok=true
// with a non-nil error is a definitive result (e.g. a genuine unbounded
// certificate from a feasible basis).
func (s *Solver) warmSolve(p *Problem) (xOut []float64, obj float64, err error, ok bool) {
	n, m := p.n, p.NumConstraints()
	nSlack := 0
	for _, sense := range s.nsens {
		if sense != EQ {
			nSlack++
		}
	}
	ncols := n + nSlack
	s.ensureTableau(m, ncols+1)
	s.loadStructural(n, m, ncols)
	si := n
	for i, sense := range s.nsens {
		switch sense {
		case LE:
			s.t[i][si] = 1
			si++
		case GE:
			s.t[i][si] = -1
			si++
		}
	}

	// Refactorize: Gaussian elimination over the recorded basis columns
	// with partial pivoting — for each basic variable, pivot it into the
	// not-yet-assigned row where its coefficient is largest. (The row a
	// variable was basic in last time is meaningless for a freshly built
	// tableau.) A column with no usable pivot means the recorded basis is
	// singular for the new data — bail out to the cold path.
	s.basis = growI(s.basis, m)
	for i := range s.basis {
		s.basis[i] = -1
	}
	for k := 0; k < m; k++ {
		col := s.wbasis[k]
		r, best := -1, warmPivotTol
		for i := 0; i < m; i++ {
			if s.basis[i] != -1 {
				continue
			}
			if a := math.Abs(s.t[i][col]); a > best {
				r, best = i, a
			}
		}
		if r < 0 {
			return nil, 0, nil, false
		}
		s.pivot(s.t, s.basis, r, col)
	}
	// The re-pivoted basis must be primal feasible for the new rhs.
	for i := 0; i < m; i++ {
		r := s.t[i][ncols]
		if r < -warmFeasTol {
			return nil, 0, nil, false
		}
		if r < 0 {
			s.t[i][ncols] = 0
		}
	}

	s.cost = growF(s.cost, ncols)
	copy(s.cost, p.c)
	for j := n; j < ncols; j++ {
		s.cost[j] = 0
	}
	equilibrate(s.cost[:n])
	if _, err := s.simplex(m, s.cost); err != nil {
		s.haveBasis = false
		if errors.Is(err, ErrUnbounded) {
			// A feasible basis plus an unbounded pivoting direction is a
			// valid certificate; re-running cold would only rediscover it.
			return nil, 0, err, true
		}
		return nil, 0, nil, false
	}
	x, obj := s.extract(p, ncols)
	s.recordBasis(n, m)
	return x, obj, nil, true
}

// coldSolve runs the full two-phase simplex on the normalized data.
func (s *Solver) coldSolve(p *Problem) ([]float64, float64, error) {
	n, m := p.n, p.NumConstraints()
	nSlack, nArt := 0, 0
	for _, sense := range s.nsens {
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	ncols := n + nSlack + nArt
	s.ensureTableau(m, ncols+1)
	s.loadStructural(n, m, ncols)
	s.basis = growI(s.basis, m)
	artCol := n + nSlack // first artificial column
	si, ai := n, artCol
	for i, sense := range s.nsens {
		switch sense {
		case LE:
			s.t[i][si] = 1
			s.basis[i] = si
			si++
		case GE:
			s.t[i][si] = -1
			si++
			s.t[i][ai] = 1
			s.basis[i] = ai
			ai++
		case EQ:
			s.t[i][ai] = 1
			s.basis[i] = ai
			ai++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		s.cost = growF(s.cost, ncols)
		for j := 0; j < artCol; j++ {
			s.cost[j] = 0
		}
		for j := artCol; j < ncols; j++ {
			s.cost[j] = 1
		}
		obj, err := s.simplex(m, s.cost)
		if err != nil {
			s.haveBasis = false
			return nil, 0, err
		}
		if obj > feasTol {
			s.haveBasis = false
			return nil, 0, ErrInfeasible
		}
		// Drive remaining artificials out of the basis.
		for i, b := range s.basis {
			if b < artCol {
				continue
			}
			pivoted := false
			for j := 0; j < artCol; j++ {
				if math.Abs(s.t[i][j]) > eps {
					s.pivot(s.t, s.basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: zero it so it never pivots again.
				for j := range s.t[i] {
					s.t[i][j] = 0
				}
				s.basis[i] = -1
			}
		}
		// Forbid artificial columns in phase 2.
		for i := range s.t {
			for j := artCol; j < ncols; j++ {
				s.t[i][j] = 0
			}
		}
	}

	// Phase 2: the real objective (zero cost on slack columns). The cost
	// vector is equilibrated like the rows — scaling the objective by a
	// positive constant moves no vertex, and the returned objective value
	// is recomputed from the caller's coefficients afterwards.
	s.cost = growF(s.cost, ncols)
	copy(s.cost, p.c)
	for j := n; j < ncols; j++ {
		s.cost[j] = 0
	}
	equilibrate(s.cost[:n])
	if _, err := s.simplex(m, s.cost); err != nil {
		s.haveBasis = false
		return nil, 0, err
	}
	x, obj := s.extract(p, ncols)
	s.recordBasis(n, m)
	return x, obj, nil
}

// extract reads the solution out of the tableau and recomputes the
// objective from the caller's (unequilibrated) costs.
func (s *Solver) extract(p *Problem, ncols int) ([]float64, float64) {
	s.x = growF(s.x, p.n)
	for i := range s.x {
		s.x[i] = 0
	}
	for i, b := range s.basis {
		if b >= 0 && b < p.n {
			s.x[b] = s.t[i][ncols]
		}
	}
	var obj float64
	for j, cj := range p.c {
		obj += cj * s.x[j]
	}
	return s.x, obj
}

// recordBasis captures the optimal basis for the next warm start. A
// basis containing a redundant row (-1) or an artificial column cannot
// seed a phase-2-only tableau, so such solves leave the solver cold.
func (s *Solver) recordBasis(n, m int) {
	nSlack := 0
	for _, sense := range s.nsens {
		if sense != EQ {
			nSlack++
		}
	}
	for _, b := range s.basis {
		if b < 0 || b >= n+nSlack {
			s.haveBasis = false
			return
		}
	}
	s.wn, s.wm = n, m
	s.wsens = growSens(s.wsens, m)
	copy(s.wsens, s.nsens)
	s.wbasis = growI(s.wbasis, m)
	copy(s.wbasis, s.basis)
	s.haveBasis = true
}

// simplex optimizes the solver's tableau in place for cost vector c,
// returning the achieved objective. Pricing is Dantzig's rule (most
// negative reduced cost, ties to the smaller index); after blandTrigger
// consecutive degenerate pivots it switches to Bland's rule (smallest
// eligible index), which is cycle-free, until the next improving pivot.
// With PricingBland, every pivot uses Bland's rule.
func (s *Solver) simplex(m int, c []float64) (float64, error) {
	t := s.t[:m]
	basis := s.basis
	ncols := len(c)
	s.red = growF(s.red, ncols)
	red := s.red
	degenRun := 0
	for iter := 0; ; iter++ {
		if iter > iterLimit {
			return 0, errors.New("lp: iteration limit exceeded")
		}
		// Reduced costs: c_j − c_B·B⁻¹A_j, computed from the tableau.
		copy(red, c)
		for i, b := range basis {
			if b < 0 {
				continue
			}
			cb := c[b]
			if cb == 0 {
				continue
			}
			ti := t[i]
			for j := 0; j < ncols; j++ {
				red[j] -= cb * ti[j]
			}
		}
		bland := s.Pricing == PricingBland || degenRun >= blandTrigger
		enter := -1
		if bland {
			// Bland: smallest index with negative reduced cost.
			for j := 0; j < ncols; j++ {
				if red[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			// Dantzig: most negative reduced cost.
			best := -eps
			for j := 0; j < ncols; j++ {
				if red[j] < best {
					best = red[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			var obj float64
			for i, b := range basis {
				if b >= 0 {
					obj += c[b] * t[i][ncols]
				}
			}
			return obj, nil
		}
		// Leaving row: minimum ratio, ties by smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if basis[i] < 0 || t[i][enter] <= eps {
				continue
			}
			ratio := t[i][ncols] / t[i][enter]
			if ratio < best-eps || (math.Abs(ratio-best) <= eps && (leave < 0 || basis[i] < basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return 0, ErrUnbounded
		}
		s.stats.Pivots++
		if bland {
			s.stats.BlandPivots++
		}
		if best <= eps {
			s.stats.DegeneratePivots++
			degenRun++
		} else {
			degenRun = 0
		}
		s.pivot(t, basis, leave, enter)
	}
}

// pivot makes column enter basic in row leave. The normalised pivot row is
// mostly slack-column zeros, so the other rows are updated only in the
// columns where it is not; the column list lives on the solver, keeping a
// pivot allocation-free for any tableau width.
func (s *Solver) pivot(t [][]float64, basis []int, leave, enter int) {
	row := t[leave]
	pv := row[enter]
	nz := s.nz[:0]
	for j := range row {
		row[j] /= pv
		if row[j] != 0 {
			nz = append(nz, int32(j))
		}
	}
	s.nz = nz
	for i, ti := range t {
		if i == leave {
			continue
		}
		f := ti[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ti[j] -= f * row[j]
		}
	}
	basis[leave] = enter
}
