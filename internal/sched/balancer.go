package sched

import (
	"fmt"

	"feves/internal/device"
	"feves/internal/lp"
)

// Topology describes the device mix the balancer schedules for: nGPU
// accelerators (devices 0..nGPU-1) followed by CPU cores, matching the
// paper's p_1..p_nw, p_nw+1..p_nw+nc enumeration.
type Topology struct {
	NumGPU int
	Cores  int

	// Down, when non-nil, marks devices excluded by the health tracker:
	// the balancers force their rows to zero, skip their constraint
	// chains, and never place R* on them. Indexing follows the device
	// enumeration; a nil slice means every device is up.
	Down []bool
}

// NumDevices returns the total device count.
func (t Topology) NumDevices() int { return t.NumGPU + t.Cores }

// IsGPU reports whether device i is an accelerator.
func (t Topology) IsGPU(i int) bool { return i < t.NumGPU }

// IsDown reports whether device i is excluded.
func (t Topology) IsDown(i int) bool { return t.Down != nil && i < len(t.Down) && t.Down[i] }

// NumUp counts devices not excluded.
func (t Topology) NumUp() int {
	up := 0
	for i := 0; i < t.NumDevices(); i++ {
		if !t.IsDown(i) {
			up++
		}
	}
	return up
}

// Balancer produces one frame's distribution from the performance model.
type Balancer interface {
	// Distribute computes the row distribution for a frame with the given
	// workload (row count, search area, usable references). prevSigmaR is
	// the σʳ vector carried over from the previous frame (nil means zero).
	Distribute(pm *PerfModel, topo Topology, w device.Workload, prevSigmaR []int) (Distribution, error)
	// Name identifies the strategy in experiment output.
	Name() string
}

// LPBalancer is the paper's Load Balancing routine (Algorithm 2): a linear
// program over the distribution vectors minimizing τtot, iterated to a
// fixed point with the MS_BOUNDS/LS_BOUNDS data-reuse terms.
type LPBalancer struct {
	// NoReuse disables the MS_BOUNDS/LS_BOUNDS data-reuse optimization of
	// the Data Access Management: every accelerator fetches its complete
	// SME inputs (Δ = s_i) instead of only the rows it is missing. This is
	// the baseline of the A2 data-reuse ablation.
	NoReuse bool
	// Hysteresis, when positive, keeps the previous frame's distribution
	// unless the freshly solved one improves the predicted τtot by more
	// than this relative fraction (e.g. 0.03 = 3%). It damps the
	// oscillation between near-equivalent optima that measurement jitter
	// induces; re-scoring under the *current* model ensures genuine
	// changes (Fig. 7 load events) still switch immediately.
	Hysteresis float64

	// chain selects which reference chain's warm-start and hysteresis
	// state the next Distribute call uses (see SelectChain). Single-chain
	// callers never touch it and always use slot 0.
	chain int
	// Per-chain incumbent state: with frame-parallel encoding the two
	// chains' workloads differ (their usable-RF ramps interleave), so
	// chain 0's frame resembles chain 0's previous frame far more than
	// the immediately preceding solve, which was chain 1's.
	cs [maxChains]chainState

	// Retained scratch. Distribute is called every frame, so everything
	// below — the LP problems and solvers, the rounding/bounds work
	// vectors, and the distribution buffers themselves — persists across
	// calls; the steady state allocates nothing. The output buffers are
	// double-buffered (gen/genIdx) so the Distribution returned by one
	// call stays intact while the next call computes its successor.
	//
	// One solver per Δ fixed-point iteration per chain: the Δ vectors
	// restart from zero every frame and may cycle instead of converging,
	// so the LP of iteration i resembles iteration i of the *previous
	// frame on the same chain* far more than the solve immediately before
	// it. Slot layout is chain*deltaIters + it, so every solver
	// warm-starts from its own counterpart.
	solvers        []lp.Solver
	prob           *lp.Problem
	rowBuf         []float64
	deltaM, deltaL []int
	nm, nl         []int
	zeroSR         []int
	rs             roundScratch
	bs             boundsScratch
	gen            [2]distBufs
	genIdx         int
}

// deltaIters bounds the Δ fixed-point iterations of one Distribute call.
const deltaIters = 4

// maxChains is the number of reference chains the balancer keeps
// warm-start and hysteresis slots for (Config.Chains is capped at 2).
const maxChains = 2

// chainState is one chain's incumbent: the previous distribution for
// hysteresis re-scoring and the buffers it owns.
type chainState struct {
	prev     *Distribution
	prevRows int
	hprev    Distribution // hysteresis incumbent (owns its slices)
}

// SelectChain directs the next Distribute calls at one chain's warm-start
// and hysteresis slots. The frame-parallel encoder calls it before each
// frame of a pair; single-chain callers never need it (chain 0 is the
// default).
func (b *LPBalancer) SelectChain(chain int) {
	if chain < 0 || chain >= maxChains {
		panic(fmt.Sprintf("sched: chain %d of %d", chain, maxChains))
	}
	b.chain = chain
}

// distBufs is one generation of output buffers for a Distribution.
type distBufs struct {
	m, l, s, sigma, sigmaR, dm, dl []int
}

func (g *distBufs) size(p int) {
	g.m = growInts(g.m, p)
	g.l = growInts(g.l, p)
	g.s = growInts(g.s, p)
	g.sigma = growInts(g.sigma, p)
	g.sigmaR = growInts(g.sigmaR, p)
	g.dm = growInts(g.dm, p)
	g.dl = growInts(g.dl, p)
}

// Name implements Balancer.
func (b *LPBalancer) Name() string {
	if b.NoReuse {
		return "lp-noreuse"
	}
	return "lp"
}

// SolverStats returns the cumulative counters of the balancer's LP
// solvers — total, warm and cold solves, pivots — summed across the
// per-iteration solver slots, for telemetry and the benchmark harness.
func (b *LPBalancer) SolverStats() lp.Stats {
	var s lp.Stats
	for i := range b.solvers {
		st := b.solvers[i].Stats()
		s.Solves += st.Solves
		s.WarmSolves += st.WarmSolves
		s.ColdSolves += st.ColdSolves
		s.WarmRejects += st.WarmRejects
		s.Pivots += st.Pivots
		s.DegeneratePivots += st.DegeneratePivots
		s.BlandPivots += st.BlandPivots
	}
	return s
}

// Distribute implements Balancer. The returned Distribution's slices
// alias buffers owned by the balancer and double-buffered across calls:
// a result stays valid while the *next* frame is being distributed, but
// no longer — callers retaining a distribution must copy its vectors.
func (b *LPBalancer) Distribute(pm *PerfModel, topo Topology, w device.Workload, prevSigmaR []int) (Distribution, error) {
	rows := w.Rows()
	if !pm.Ready() {
		return Distribution{}, fmt.Errorf("sched: performance model not characterized yet")
	}
	p := topo.NumDevices()
	if pm.NumDevices() != p {
		return Distribution{}, fmt.Errorf("sched: model has %d devices, topology %d", pm.NumDevices(), p)
	}
	if prevSigmaR == nil {
		b.zeroSR = growInts(b.zeroSR, p)
		for i := range b.zeroSR {
			b.zeroSR[i] = 0
		}
		prevSigmaR = b.zeroSR
	}
	if b.solvers == nil {
		b.solvers = make([]lp.Solver, maxChains*deltaIters)
		for i := range b.solvers {
			// The balancer's LPs are riddled with alternative optima
			// (identical devices make whole variable blocks symmetric),
			// and the executed schedule is sensitive to which tied vertex
			// the solver returns. Bland pricing keeps the solver's
			// canonical vertex choice stable across solver versions;
			// per-frame speed comes from warm-starting, not from pricing.
			b.solvers[i].Pricing = lp.PricingBland
		}
	}
	rstar := PlaceRStar(pm, topo, rows)

	g := &b.gen[b.genIdx]
	b.genIdx = 1 - b.genIdx
	g.size(p)
	b.deltaM = growInts(b.deltaM, p)
	b.deltaL = growInts(b.deltaL, p)
	b.nm = growInts(b.nm, p)
	b.nl = growInts(b.nl, p)
	deltaM, deltaL := b.deltaM, b.deltaL
	for i := 0; i < p; i++ {
		deltaM[i], deltaL[i] = 0, 0
	}

	var d Distribution
	for it := 0; it < deltaIters; it++ {
		x, err := b.solveLP(b.chain*deltaIters+it, pm, topo, w, rstar, deltaM, deltaL, prevSigmaR)
		if err != nil {
			return Distribution{}, err
		}
		roundPreservingSumInto(g.m, x[0:p], rows, &b.rs)
		roundPreservingSumInto(g.l, x[p:2*p], rows, &b.rs)
		roundPreservingSumInto(g.s, x[2*p:3*p], rows, &b.rs)
		d = Distribution{
			M: g.m, L: g.l, S: g.s,
			RStarDev: rstar,
			PredTau1: x[3*p], PredTau2: x[3*p+1], PredTot: x[3*p+2],
		}
		if b.NoReuse {
			fullFetchInto(b.nm, g.s, topo.IsGPU)
			fullFetchInto(b.nl, g.s, topo.IsGPU)
		} else {
			boundsBetweenInto(b.nm, g.m, g.s, topo.IsGPU, &b.bs)
			boundsBetweenInto(b.nl, g.l, g.s, topo.IsGPU, &b.bs)
		}
		if intsEqual(b.nm, deltaM) && intsEqual(b.nl, deltaL) {
			break
		}
		copy(deltaM, b.nm)
		copy(deltaL, b.nl)
	}
	copy(g.dm, b.nm)
	copy(g.dl, b.nl)
	d.DeltaM, d.DeltaL = g.dm, g.dl

	// Hysteresis: prefer the incumbent distribution when the new solution
	// is not a real improvement under the current measurements. An
	// incumbent that assigns rows to a since-excluded device is dead —
	// keeping it would schedule work onto silicon that is gone.
	cs := &b.cs[b.chain]
	if b.Hysteresis > 0 && cs.prev != nil && cs.prevRows == rows &&
		len(cs.prev.M) == p && cs.prev.RStarDev == rstar && !assignsToDown(cs.prev, topo) {
		_, _, prevTot := PredictTimes(pm, topo, w, *cs.prev, prevSigmaR)
		if prevTot <= d.PredTot*(1+b.Hysteresis) {
			copy(g.m, cs.prev.M)
			copy(g.l, cs.prev.L)
			copy(g.s, cs.prev.S)
			boundsBetweenInto(g.dm, g.m, g.s, topo.IsGPU, &b.bs)
			boundsBetweenInto(g.dl, g.l, g.s, topo.IsGPU, &b.bs)
			t1, t2, tot := PredictTimes(pm, topo, w, d, prevSigmaR)
			d.PredTau1, d.PredTau2, d.PredTot = t1, t2, tot
		}
	}

	// Constraints (14)/(15): size the deferred SF completion transfers to
	// fit the τ2→τtot slack.
	for i := 0; i < p; i++ {
		g.sigma[i], g.sigmaR[i] = 0, 0
	}
	d.Sigma, d.SigmaR = g.sigma, g.sigmaR
	slack := d.PredTot - d.PredTau2
	for i := 0; i < p; i++ {
		if !topo.IsGPU(i) || i == rstar || topo.IsDown(i) {
			continue
		}
		missing := rows - d.L[i] - d.DeltaL[i]
		g.sigma[i], g.sigmaR[i] = SigmaSplit(missing, slack, pm.T(i, SFh2d))
	}
	if err := d.Validate(rows); err != nil {
		return Distribution{}, err
	}
	if b.Hysteresis > 0 {
		cs.hprev.M = append(cs.hprev.M[:0], d.M...)
		cs.hprev.L = append(cs.hprev.L[:0], d.L...)
		cs.hprev.S = append(cs.hprev.S[:0], d.S...)
		cs.hprev.Sigma = append(cs.hprev.Sigma[:0], d.Sigma...)
		cs.hprev.SigmaR = append(cs.hprev.SigmaR[:0], d.SigmaR...)
		cs.hprev.DeltaM = append(cs.hprev.DeltaM[:0], d.DeltaM...)
		cs.hprev.DeltaL = append(cs.hprev.DeltaL[:0], d.DeltaL...)
		cs.hprev.RStarDev = d.RStarDev
		cs.hprev.PredTau1, cs.hprev.PredTau2, cs.hprev.PredTot = d.PredTau1, d.PredTau2, d.PredTot
		cs.prev = &cs.hprev
		cs.prevRows = rows
	}
	return d, nil
}

// solveLP builds and solves one instance of Algorithm 2's linear program
// with the Δ terms held constant. The problem is rebuilt into retained
// storage and handed to the retained solver in `slot` (chain*deltaIters +
// iteration), which warm-starts from the same slot's optimal basis of the
// previous frame on that chain whenever the problem shape is unchanged
// (health exclusions change the constraint senses, forcing — correctly —
// a cold solve). The returned vector aliases solver scratch valid until
// that solver's next solve.
func (b *LPBalancer) solveLP(slot int, pm *PerfModel, topo Topology, w device.Workload, rstar int, deltaM, deltaL, prevSigmaR []int) ([]float64, error) {
	p := topo.NumDevices()
	rows := w.Rows()
	n := float64(rows)
	// Variables: m_0..m_{p-1}, l_..., s_..., τ1, τ2, τtot.
	vm := func(i int) int { return i }
	vl := func(i int) int { return p + i }
	vs := func(i int) int { return 2*p + i }
	t1, t2, tot := 3*p, 3*p+1, 3*p+2
	nv := 3*p + 3

	if b.prob == nil {
		b.prob = lp.New(nv)
	} else {
		b.prob.Reset(nv)
	}
	prob := b.prob
	// Objective: minimize τtot. The tiny weights on τ1 and τ2 break ties
	// among alternative optima toward schedules with early synchronization
	// points, which also overlap better in the measured execution.
	prob.Coef(tot, 1)
	prob.Coef(t1, 1e-3)
	prob.Coef(t2, 1e-3)

	b.rowBuf = growFloats(b.rowBuf, nv)
	row := func() []float64 {
		for i := range b.rowBuf {
			b.rowBuf[i] = 0
		}
		return b.rowBuf
	}

	// (1) ∑m = ∑l = ∑s = N.
	for blk := 0; blk < 3; blk++ {
		a := row()
		for i := 0; i < p; i++ {
			a[blk*p+i] = 1
		}
		prob.Add(a, lp.EQ, n)
	}
	// Ordering of synchronization points.
	a := row()
	a[t1], a[t2] = 1, -1
	prob.Add(a, lp.LE, 0)
	a = row()
	a[t2], a[tot] = 1, -1
	prob.Add(a, lp.LE, 0)

	trs := pm.TRStar(rstar, rows)
	for i := 0; i < p; i++ {
		if topo.IsDown(i) {
			// Excluded device: rows forced to zero, and every one of its
			// constraint chains — including the N·K^rfhd RF-broadcast
			// terms that do not depend on assigned rows — drops out.
			for _, v := range []int{vm(i), vl(i), vs(i)} {
				a = row()
				a[v] = 1
				prob.Add(a, lp.EQ, 0)
			}
			continue
		}
		km, kl, ks := pm.KAt(i, ModME, w.UsableRF), pm.K(i, ModINT), pm.KAt(i, ModSME, w.UsableRF)
		switch {
		case !topo.IsGPU(i):
			// (2) K^l·l + K^m·m ≤ τ1.
			a = row()
			a[vm(i)], a[vl(i)], a[t1] = km, kl, -1
			prob.Add(a, lp.LE, 0)
			// (3) τ1 + K^s·s ≤ τ2.
			a = row()
			a[t1], a[vs(i)], a[t2] = 1, ks, -1
			prob.Add(a, lp.LE, 0)
			if i == rstar {
				// CPU-centric: R* runs on the cores after τ2.
				a = row()
				a[t2], a[tot] = 1, -1
				prob.Add(a, lp.LE, -trs)
			}
		case i == rstar:
			kcf, ksfh, ksfd := pm.T(i, CFh2d), pm.T(i, SFh2d), pm.T(i, SFd2h)
			kmvh, kmvd, krfd := pm.T(i, MVh2d), pm.T(i, MVd2h), pm.T(i, RFd2h)
			dm, dl := float64(deltaM[i]), float64(deltaL[i])
			// Joint compute-engine serialization: the paper's constraints
			// (4) and (5) bound the ME and INT chains separately, but both
			// kernels run serially on the accelerator's single compute
			// engine (Fig. 4's timeline: INT then ME), so their sum also
			// bounds τ1. Without this the LP underestimates τ1 and picks
			// distributions the measured schedule cannot meet.
			a = row()
			a[vl(i)], a[vm(i)], a[t1] = kl, km, -1
			prob.Add(a, lp.LE, 0)
			// (4) m(K^cfhd + K^m + K^mvdh) ≤ τ1.
			a = row()
			a[vm(i)], a[t1] = kcf+km+kmvd, -1
			prob.Add(a, lp.LE, 0)
			// (5) l·K^l + l·K^sfdh + Δm·K^cfhd + m·K^mvdh ≤ τ1.
			a = row()
			a[vl(i)], a[vm(i)], a[t1] = kl+ksfd, kmvd, -1
			prob.Add(a, lp.LE, -dm*kcf)
			// (6) m·K^cfhd + l·K^sfdh + Δm·K^cfhd + m·K^mvdh ≤ τ1.
			a = row()
			a[vm(i)], a[vl(i)], a[t1] = kcf+kmvd, ksfd, -1
			prob.Add(a, lp.LE, -dm*kcf)
			// (7) τ1 + Δl·K^sfhd + Δm·K^mvhd + s·K^s ≤ τ2.
			a = row()
			a[t1], a[vs(i)], a[t2] = 1, ks, -1
			prob.Add(a, lp.LE, -dl*ksfh-dm*kmvh)
			// (8) τ1 + Δl·K^sfhd + (N−m−Δm)·K^cfhd + (N−l−Δl)·K^sfhd + Δm·K^mvhd ≤ τ2.
			a = row()
			a[t1], a[vm(i)], a[vl(i)], a[t2] = 1, -kcf, -ksfh, -1
			prob.Add(a, lp.LE, -dl*ksfh-(n-dm)*kcf-(n-dl)*ksfh-dm*kmvh)
			// (9) τ2 + (N−s)·K^mvhd + T^R* + N·K^rfdh ≤ τtot.
			a = row()
			a[t2], a[vs(i)], a[tot] = 1, -kmvh, -1
			prob.Add(a, lp.LE, -n*kmvh-trs-n*krfd)
		default:
			kcf, krfh, ksfh, ksfd := pm.T(i, CFh2d), pm.T(i, RFh2d), pm.T(i, SFh2d), pm.T(i, SFd2h)
			kmvh, kmvd := pm.T(i, MVh2d), pm.T(i, MVd2h)
			dm, dl := float64(deltaM[i]), float64(deltaL[i])
			sr := float64(prevSigmaR[i])
			// Joint compute-engine serialization (see the R* device case):
			// the RF upload leads in, then INT and ME run back to back.
			a = row()
			a[vl(i)], a[vm(i)], a[t1] = kl, km, -1
			prob.Add(a, lp.LE, -n*krfh)
			// (10) N·K^rfhd + m(K^cfhd + K^m + K^mvdh) ≤ τ1.
			a = row()
			a[vm(i)], a[t1] = kcf+km+kmvd, -1
			prob.Add(a, lp.LE, -n*krfh)
			// (11) N·K^rfhd + l(K^l+K^sfdh) + σʳ⁻¹·K^sfhd + Δm·K^cfhd + m·K^mvdh ≤ τ1.
			a = row()
			a[vl(i)], a[vm(i)], a[t1] = kl+ksfd, kmvd, -1
			prob.Add(a, lp.LE, -n*krfh-sr*ksfh-dm*kcf)
			// (12) N·K^rfhd + m·K^cfhd + l·K^sfdh + σʳ⁻¹·K^sfhd + Δm·K^cfhd + m·K^mvdh ≤ τ1.
			a = row()
			a[vm(i)], a[vl(i)], a[t1] = kcf+kmvd, ksfd, -1
			prob.Add(a, lp.LE, -n*krfh-sr*ksfh-dm*kcf)
			// (13) τ1 + Δl·K^sfhd + Δm·K^mvhd + s·K^s + s·K^mvdh ≤ τ2.
			a = row()
			a[t1], a[vs(i)], a[t2] = 1, ks+kmvd, -1
			prob.Add(a, lp.LE, -dl*ksfh-dm*kmvh)
		}
	}
	x, _, err := b.solvers[slot].Solve(prob)
	if err != nil {
		return nil, fmt.Errorf("sched: load-balancing LP: %w", err)
	}
	return x, nil
}

// fullFetchInto writes Δ = s_i for every accelerator into out: the
// no-data-reuse baseline, where SME inputs are always transferred in
// full.
func fullFetchInto(out, s []int, isGPU func(int) bool) {
	for i, v := range s {
		if isGPU(i) {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// assignsToDown reports whether a distribution gives any rows (or R*) to
// an excluded device.
func assignsToDown(d *Distribution, topo Topology) bool {
	if topo.IsDown(d.RStarDev) {
		return true
	}
	for i := 0; i < topo.NumDevices(); i++ {
		if topo.IsDown(i) && (d.M[i] > 0 || d.L[i] > 0 || d.S[i] > 0) {
			return true
		}
	}
	return false
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EquidistantBalancer is the multi-GPU state of the art the paper compares
// against ([8]): a static even split regardless of device speeds.
type EquidistantBalancer struct{}

// Name implements Balancer.
func (EquidistantBalancer) Name() string { return "equidistant" }

// Distribute implements Balancer.
func (EquidistantBalancer) Distribute(pm *PerfModel, topo Topology, w device.Workload, prevSigmaR []int) (Distribution, error) {
	rows := w.Rows()
	rstar := firstUpIndex(topo)
	if pm != nil && pm.Ready() {
		rstar = PlaceRStar(pm, topo, rows)
	}
	return EquidistantExcluding(topo.NumDevices(), rows, rstar, topo.Down), nil
}

// ProportionalBalancer splits each module's rows proportionally to the
// devices' observed module speeds, without modelling transfers or overlap
// — a natural heuristic the A1 ablation compares the LP against.
type ProportionalBalancer struct{}

// Name implements Balancer.
func (ProportionalBalancer) Name() string { return "proportional" }

// Distribute implements Balancer.
func (ProportionalBalancer) Distribute(pm *PerfModel, topo Topology, w device.Workload, prevSigmaR []int) (Distribution, error) {
	rows := w.Rows()
	if !pm.Ready() {
		return Distribution{}, fmt.Errorf("sched: performance model not characterized yet")
	}
	p := topo.NumDevices()
	split := func(m Module) []int {
		w := make([]float64, p)
		var sum float64
		for i := 0; i < p; i++ {
			if topo.IsDown(i) {
				continue
			}
			w[i] = 1 / pm.K(i, m)
			sum += w[i]
		}
		for i := range w {
			w[i] = w[i] / sum * float64(rows)
		}
		return roundPreservingSum(w, rows)
	}
	d := Distribution{
		M: split(ModME), L: split(ModINT), S: split(ModSME),
		RStarDev: PlaceRStar(pm, topo, rows),
	}
	d.DeltaM = MSBounds(d.M, d.S, topo.IsGPU)
	d.DeltaL = LSBounds(d.L, d.S, topo.IsGPU)
	d.Sigma = make([]int, p)
	d.SigmaR = make([]int, p)
	for i := 0; i < p; i++ {
		if topo.IsGPU(i) && i != d.RStarDev && !topo.IsDown(i) {
			d.SigmaR[i] = rows - d.L[i] - d.DeltaL[i]
			if d.SigmaR[i] < 0 {
				d.SigmaR[i] = 0
			}
		}
	}
	return d, d.Validate(rows)
}
