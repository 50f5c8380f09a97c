package pool

import (
	"math"
	"sort"

	"feves/internal/device"
	"feves/internal/lp"
)

// demand is one session's standing workload, the weight the partitioner
// equalizes across tenants.
type demand struct {
	id int
	w  device.Workload
}

// rowRate returns device d's row throughput for a workload: rows per
// second of the serialized inter-loop work (ME+INT+SME+R*). Transfers and
// overlap are ignored — the per-frame LP inside each session handles
// those; the pool layer only needs a coarse relative speed, and the
// kernel-coefficient sum preserves exactly the device ratios the per-frame
// model converges to.
func rowRate(p device.Profile, w device.Workload) float64 {
	per := p.KME(w) + p.KINT(w) + p.KSME(w) + p.KRStar(w)
	if per <= 0 {
		return 0
	}
	return 1 / per
}

// partitionDevices splits the platform's up devices (the base indices in
// up, ascending) into disjoint non-empty subsets, one per demand,
// minimizing the worst predicted per-session τtot ≈ rows / Σ leased
// row-rates. It first solves the fractional relaxation as a linear
// program — the second LP layer above the per-frame Algorithm 2 — and
// rounds device-wise; if the LP fails or the rounding starves a session,
// a deterministic LPT-style greedy takes over. Requires
// 1 ≤ len(ds) ≤ len(up). The returned sets hold base platform indices.
func partitionDevices(base *device.Platform, ds []demand, up []int) (sets [][]int, taus []float64) {
	nd := len(up)
	rates := make([][]float64, len(ds)) // rates[s][j] over up[j]
	for s, dm := range ds {
		rates[s] = make([]float64, nd)
		for j, d := range up {
			rates[s][j] = rowRate(base.Dev(d), dm.w)
		}
	}
	sets = partitionLP(ds, rates, nd)
	if sets == nil {
		sets = partitionGreedy(ds, rates, nd)
	}
	taus = make([]float64, len(ds))
	for s, set := range sets {
		var rate float64
		for _, j := range set {
			rate += rates[s][j]
		}
		if rate > 0 {
			taus[s] = float64(ds[s].w.Rows()) / rate
		}
		// Translate the partitioner's compact indices back to base ones.
		for k, j := range set {
			set[k] = up[j]
		}
	}
	return sets, taus
}

// partitionLP solves the fractional partitioning LP
//
//	maximize  z
//	s.t.      Σ_s x[s,d] ≤ 1                     (each device leased once)
//	          Σ_d r[s,d]·x[s,d] ≥ z·rows_s       (session speed floor)
//	          x ≥ 0
//
// and rounds each device to the session with the largest fractional
// share. Returns nil when the LP fails or the rounding leaves a session
// with no device (the greedy fallback then decides).
func partitionLP(ds []demand, rates [][]float64, nd int) [][]int {
	ns := len(ds)
	xv := func(s, d int) int { return s*nd + d }
	zv := ns * nd
	prob := lp.New(ns*nd + 1)
	prob.Coef(zv, -1) // maximize z
	// Add copies its argument, so one row buffer serves every constraint.
	a := make([]float64, ns*nd+1)
	for d := 0; d < nd; d++ {
		clear(a)
		for s := 0; s < ns; s++ {
			a[xv(s, d)] = 1
		}
		prob.Add(a, lp.LE, 1)
	}
	for s := 0; s < ns; s++ {
		clear(a)
		for d := 0; d < nd; d++ {
			a[xv(s, d)] = rates[s][d]
		}
		a[zv] = -float64(ds[s].w.Rows())
		prob.Add(a, lp.GE, 0)
	}
	x, _, err := prob.Solve()
	if err != nil {
		return nil
	}
	sets := make([][]int, ns)
	for d := 0; d < nd; d++ {
		best, bestShare := 0, math.Inf(-1)
		for s := 0; s < ns; s++ {
			if share := x[xv(s, d)]; share > bestShare+1e-12 {
				best, bestShare = s, share
			}
		}
		sets[best] = append(sets[best], d)
	}
	for _, set := range sets {
		if len(set) == 0 {
			return nil
		}
	}
	return sets
}

// partitionGreedy is the deterministic fallback: devices in descending
// mean-rate order, each assigned to the session whose predicted τtot is
// currently worst (sessions with no device yet are infinitely slow, so
// every session gets one before any gets two).
func partitionGreedy(ds []demand, rates [][]float64, nd int) [][]int {
	ns := len(ds)
	order := make([]int, nd)
	mean := make([]float64, nd)
	for d := 0; d < nd; d++ {
		order[d] = d
		for s := 0; s < ns; s++ {
			mean[d] += rates[s][d]
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return mean[order[i]] > mean[order[j]] })

	sets := make([][]int, ns)
	speed := make([]float64, ns) // Σ leased rates per session
	for _, d := range order {
		worst, worstTau := 0, math.Inf(-1)
		for s := 0; s < ns; s++ {
			// Unserved sessions are infinitely slow and come first; among
			// those, the one with the most rows.
			tau := math.Inf(1)
			if speed[s] > 0 {
				tau = float64(ds[s].w.Rows()) / speed[s]
			}
			if tau > worstTau || (tau == worstTau && math.IsInf(tau, 1) &&
				ds[s].w.Rows() > ds[worst].w.Rows()) {
				worst, worstTau = s, tau
			}
		}
		sets[worst] = append(sets[worst], d)
		speed[worst] += rates[worst][d]
	}
	for s := range sets {
		sort.Ints(sets[s])
	}
	return sets
}
