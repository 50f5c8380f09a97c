package pool

import (
	"math"
	"sort"

	"feves/internal/device"
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
// up, ascending) into disjoint non-empty subsets, one per demand, with the
// greedy partitioner: an LPT greedy that balances the predicted
// per-session τtot ≈ rows / Σ leased row-rates. Requires
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
	sets = partitionGreedy(ds, rates, nd)
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

// partitionGreedy assigns devices in descending mean-rate order, each to
// the session whose predicted τtot is currently worst (sessions with no
// device yet are infinitely slow, so every session gets one before any
// gets two).
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
