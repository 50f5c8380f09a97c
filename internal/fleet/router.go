package fleet

import (
	"math"
	"sort"

	"feves/internal/lp"
)

// routeUnit is one placeable piece of work — a whole session or one GOP
// shard of a sharded stream. Weight is its predicted serialized row count
// (frame rows × frames), the same yardstick the pool partitioner and the
// per-frame LP balance with. Prefer lists candidate-node indices already
// hosting sibling shards of the unit's stream: affinity-aware rounding
// keeps the unit there when the share it gives up is within the router's
// affinity tolerance, bounding reassembly fan-in.
type routeUnit struct {
	weight float64
	prefer []int
}

// nodeCap is one candidate node's standing at routing time: its calibrated
// aggregate row rate over the devices currently up (pool.Rate) and its
// live load — the summed row·frame weight of every queued and running job
// on the node (serve.Server.Load), refreshed at every placement so a node
// whose admission queue deepened since the last decision is shed.
type nodeCap struct {
	rate float64
	load float64
}

// RouterStats counts the router's decisions and carries the warm-start
// statistics of its retained LP solver, surfaced in /debug/state.
type RouterStats struct {
	Routes   int `json:"routes"`    // route calls answered
	Units    int `json:"units"`     // units placed in total
	LPRoutes int `json:"lp_routes"` // calls decided by the LP rounding
	Greedy   int `json:"greedy"`    // calls that fell back to greedy LPT
	// AffinityHits counts units the affinity preference moved onto a node
	// their stream already occupied, away from the share-optimal choice.
	AffinityHits int `json:"affinity_hits"`
	// Solver aggregates the retained solver's lifetime warm-start behaviour.
	Solver lp.Stats `json:"solver"`
}

// router places route units onto nodes by solving a fractional min-max LP,
// the top of the hierarchy (per-frame Algorithm 2 LP → greedy pool
// partitioner → fleet router):
//
//	minimize  z
//	s.t.      Σ_n x[u,n] = 1                          (each unit placed once)
//	          Σ_u w_u·x[u,n] − z·rate_n ≤ −load_n     (node finish-time cap)
//	          x, z ≥ 0
//
// z is the worst node's predicted finish time (existing load plus newly
// assigned weight, in rows, over the node's calibrated row rate). Units are
// rounded to their largest fractional share, except that a unit whose
// stream already occupies a node (picked earlier in the same call, or
// carried in prefer) stays there when the share it gives up is within the
// affinity tolerance. The solver, problem and constraint rows are retained
// across calls so steady-state routing (same fleet shape, new session)
// warm-starts from the previous basis without reallocating; a failed solve
// or a degenerate rounding falls back to a deterministic LPT greedy. Not
// safe for concurrent use — the fleet serializes calls under its mutex.
type router struct {
	solver *lp.Solver
	prob   *lp.Problem
	// affinity ∈ [0,1] is the rounding tolerance: 0 places every unit on
	// its largest share, 1 collapses a stream onto as few nodes as the LP
	// leaves any share on.
	affinity float64
	stats    RouterStats

	// Retained scratch. row is the constraint row handed to Problem.Add
	// (which copies its argument, so one buffer serves every row of every
	// call); assign and chosen back the rounding. A route result is only
	// valid until the next route call.
	row    []float64
	assign []int
	chosen []bool
}

func newRouter(affinity float64) *router {
	return &router{solver: lp.NewSolver(), affinity: affinity}
}

// route returns, for each unit, the index of the chosen node in nodes.
// len(nodes) must be ≥ 1; nodes with zero rate are never chosen unless
// every node's rate is zero. The returned slice aliases retained scratch.
func (r *router) route(units []routeUnit, nodes []nodeCap) []int {
	r.stats.Routes++
	r.stats.Units += len(units)
	assign := r.routeLP(units, nodes)
	if assign == nil {
		r.stats.Greedy++
		var hits int
		assign, hits = routeGreedy(units, nodes, r.affinity)
		r.stats.AffinityHits += hits
	} else {
		r.stats.LPRoutes++
	}
	r.stats.Solver = r.solver.Stats()
	return assign
}

func (r *router) routeLP(units []routeUnit, nodes []nodeCap) []int {
	nu, nn := len(units), len(nodes)
	if nu == 0 || nn == 0 {
		return nil
	}
	for _, n := range nodes {
		if n.rate <= 0 {
			return nil // a dead-weight node breaks the cap rows; greedy decides
		}
	}
	xv := func(u, n int) int { return u*nn + n }
	zv := nu * nn
	if r.prob == nil {
		r.prob = lp.New(zv + 1)
	} else {
		r.prob.Reset(zv + 1)
	}
	r.prob.Coef(zv, 1) // minimize z
	if cap(r.row) < zv+1 {
		r.row = make([]float64, zv+1)
	}
	row := r.row[:zv+1]
	for u := 0; u < nu; u++ {
		for i := range row {
			row[i] = 0
		}
		for n := 0; n < nn; n++ {
			row[xv(u, n)] = 1
		}
		r.prob.Add(row, lp.EQ, 1)
	}
	for n := 0; n < nn; n++ {
		for i := range row {
			row[i] = 0
		}
		for u := 0; u < nu; u++ {
			row[xv(u, n)] = units[u].weight
		}
		row[zv] = -nodes[n].rate
		r.prob.Add(row, lp.LE, -nodes[n].load)
	}
	x, _, err := r.solver.Solve(r.prob)
	if err != nil {
		return nil
	}
	if cap(r.assign) < nu {
		r.assign = make([]int, nu)
	}
	if cap(r.chosen) < nn {
		r.chosen = make([]bool, nn)
	}
	assign, chosen := r.assign[:nu], r.chosen[:nn]
	for i := range chosen {
		chosen[i] = false
	}
	for u := 0; u < nu; u++ {
		best, bestShare := -1, math.Inf(-1)
		for n := 0; n < nn; n++ {
			if share := x[xv(u, n)]; share > bestShare+1e-12 {
				best, bestShare = n, share
			}
		}
		if best < 0 || bestShare <= 0 {
			return nil
		}
		// Affinity rounding: a unit stays on a node its stream already
		// occupies — picked earlier in this call or carried in prefer —
		// when the LP share it gives up is within the affinity tolerance.
		if r.affinity > 0 && !preferredNode(units[u], chosen, best) {
			alt, altShare := -1, math.Inf(-1)
			for n := 0; n < nn; n++ {
				if !preferredNode(units[u], chosen, n) {
					continue
				}
				if share := x[xv(u, n)]; share > altShare {
					alt, altShare = n, share
				}
			}
			if alt >= 0 && altShare >= bestShare-r.affinity-1e-9 {
				best = alt
				r.stats.AffinityHits++
			}
		}
		assign[u] = best
		chosen[best] = true
	}
	return assign
}

// preferredNode reports whether node n already hosts sibling work of the
// unit's stream: chosen marks nodes picked for earlier units of the same
// call (SubmitStream routes all of one stream's shards together), prefer
// carries nodes hosting the stream's other shards on a later re-lease.
func preferredNode(u routeUnit, chosen []bool, n int) bool {
	if n < len(chosen) && chosen[n] {
		return true
	}
	for _, p := range u.prefer {
		if p == n {
			return true
		}
	}
	return false
}

// routeGreedy is the deterministic fallback: units in descending weight
// order (LPT), each placed on the node whose predicted finish time after
// taking the unit is smallest; rateless nodes are last resort. Ties —
// including the all-rateless fleet, where every finish time is +Inf —
// break by least accumulated load, so a zero-capacity fleet still spreads
// work instead of piling every unit onto node 0. The same affinity
// tolerance as the LP rounding applies, as a finish-time factor.
func routeGreedy(units []routeUnit, nodes []nodeCap, affinity float64) ([]int, int) {
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return units[order[i]].weight > units[order[j]].weight
	})
	load := make([]float64, len(nodes))
	for n := range nodes {
		load[n] = nodes[n].load
	}
	assign := make([]int, len(units))
	chosen := make([]bool, len(nodes))
	hits := 0
	tau := func(n, u int) float64 {
		if nodes[n].rate <= 0 {
			return math.Inf(1)
		}
		return (load[n] + units[u].weight) / nodes[n].rate
	}
	for _, u := range order {
		best, bestTau := -1, math.Inf(1)
		for n := range nodes {
			t := tau(n, u)
			if best < 0 || t < bestTau || (t == bestTau && load[n] < load[best]) {
				best, bestTau = n, t
			}
		}
		if affinity > 0 && !preferredNode(units[u], chosen, best) && !math.IsInf(bestTau, 1) {
			alt, altTau := -1, math.Inf(1)
			for n := range nodes {
				if !preferredNode(units[u], chosen, n) {
					continue
				}
				if t := tau(n, u); t < altTau {
					alt, altTau = n, t
				}
			}
			if alt >= 0 && altTau <= bestTau*(1+affinity) {
				best = alt
				hits++
			}
		}
		assign[u] = best
		chosen[best] = true
		load[best] += units[u].weight
	}
	return assign, hits
}
