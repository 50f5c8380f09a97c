package sched

import "fmt"

// Distribution is one frame's workload assignment: the paper's vectors
// m={m_i} (ME), l={l_i} (INT) and s={s_i} (SME) in macroblock rows per
// device, the R* placement, the deferred-SF-transfer vectors σ and σʳ per
// device (non-zero only for accelerators not running R*), and the LP's
// predicted synchronization times.
type Distribution struct {
	M, L, S []int
	// RStarDev is the device running the whole R* group this frame.
	RStarDev int
	// Sigma[i] is the number of SF rows prefetched to device i during the
	// τ2→τtot slack; SigmaR[i] is the remainder deferred to the next
	// frame's τ1 interval (σʳ in the paper).
	Sigma, SigmaR []int
	// DeltaM/DeltaL are the MS_BOUNDS/LS_BOUNDS additional-transfer row
	// counts actually used for this distribution.
	DeltaM, DeltaL []int
	// PredTau1, PredTau2, PredTot are the LP's predicted synchronization
	// times (zero for non-LP balancers).
	PredTau1, PredTau2, PredTot float64
}

// Validate checks the distribution invariants of constraint (1): each
// vector is non-negative and sums to rows.
func (d *Distribution) Validate(rows int) error {
	for _, v := range [][]int{d.M, d.L, d.S} {
		sum := 0
		for _, x := range v {
			if x < 0 {
				return fmt.Errorf("sched: negative row assignment %v", v)
			}
			sum += x
		}
		if sum != rows {
			return fmt.Errorf("sched: distribution sums to %d rows, want %d", sum, rows)
		}
	}
	if d.RStarDev < 0 || d.RStarDev >= len(d.M) {
		return fmt.Errorf("sched: R* device %d out of range", d.RStarDev)
	}
	return nil
}

// OffsetsInto writes the prefix offsets of a row vector into dst (reusing
// its backing array when large enough) and returns it: device i processes
// rows [dst[i], dst[i]+v[i]). Devices are enumerated in platform order, as
// the paper's Data Access Management assumes.
func OffsetsInto(dst []int, v []int) []int {
	dst = growInts(dst, len(v))
	acc := 0
	for i, x := range v {
		dst[i] = acc
		acc += x
	}
	return dst
}

// growInts returns s resized to n entries, reusing its backing array
// when large enough. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Equidistant returns the initialization-phase distribution of Algorithm 1
// line 3: rows split as evenly as possible across all n devices, with R*
// on device rstarDev.
func Equidistant(n, rows, rstarDev int) Distribution {
	return EquidistantExcluding(n, rows, rstarDev, nil)
}

// EquidistantExcluding is Equidistant restricted to the devices not marked
// down: rows split evenly across the surviving devices, zero everywhere
// else. With a nil (or all-false) mask it is exactly Equidistant.
func EquidistantExcluding(n, rows, rstarDev int, down []bool) Distribution {
	if n <= 0 || rows <= 0 {
		panic("sched: Equidistant needs positive devices and rows")
	}
	isDown := func(i int) bool { return down != nil && i < len(down) && down[i] }
	up := 0
	for i := 0; i < n; i++ {
		if !isDown(i) {
			up++
		}
	}
	if up == 0 {
		panic("sched: Equidistant with every device excluded")
	}
	split := func() []int {
		v := make([]int, n)
		base, rem := rows/up, rows%up
		k := 0
		for i := range v {
			if isDown(i) {
				continue
			}
			v[i] = base
			if k < rem {
				v[i]++
			}
			k++
		}
		return v
	}
	d := Distribution{
		M: split(), L: split(), S: split(),
		RStarDev: rstarDev,
		Sigma:    make([]int, n),
		SigmaR:   make([]int, n),
		DeltaM:   make([]int, n),
		DeltaL:   make([]int, n),
	}
	// With identical per-module splits the SME ranges coincide with the
	// ME/INT ranges, so no additional Δ transfers are needed; the SF parts
	// produced elsewhere still have to be completed next frame, which the
	// first iterative frame handles through σʳ: every device is missing
	// all rows it did not interpolate itself.
	for i := range d.SigmaR {
		if isDown(i) {
			continue
		}
		d.SigmaR[i] = rows - d.L[i]
	}
	return d
}

// roundScratch holds the work vectors of roundPreservingSumInto so a
// caller rounding every frame reaches a steady state with no
// allocations.
type roundScratch struct {
	fracIdx []int
	fracs   []float64
}

// roundPreservingSum rounds a fractional row vector to integers that sum
// exactly to rows, assigning the leftover units to the largest fractional
// parts (deterministic ties by lower index).
func roundPreservingSum(x []float64, rows int) []int {
	var sc roundScratch
	out := make([]int, len(x))
	roundPreservingSumInto(out, x, rows, &sc)
	return out
}

// roundPreservingSumInto is roundPreservingSum writing into out
// (len(out) == len(x)) with caller-retained scratch.
func roundPreservingSumInto(out []int, x []float64, rows int, sc *roundScratch) {
	n := len(x)
	sc.fracIdx = growInts(sc.fracIdx, n)
	sc.fracs = growFloats(sc.fracs, n)
	fracIdx := sc.fracIdx
	fracs := sc.fracs
	total := 0
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		f := int(v)
		out[i] = f
		fracs[i] = v - float64(f)
		fracIdx[i] = i
		total += f
	}
	// Sort indexes by descending fractional part (stable by index).
	for a := 1; a < n; a++ {
		for b := a; b > 0; b-- {
			i, j := fracIdx[b-1], fracIdx[b]
			if fracs[j] > fracs[i]+1e-12 {
				fracIdx[b-1], fracIdx[b] = j, i
			} else {
				break
			}
		}
	}
	rem := rows - total
	for k := 0; rem > 0; k = (k + 1) % n {
		out[fracIdx[k]]++
		rem--
	}
	for rem < 0 {
		// Over-assignment can only come from clamping; shave the largest.
		big := 0
		for i := range out {
			if out[i] > out[big] {
				big = i
			}
		}
		if out[big] == 0 {
			break
		}
		out[big]--
		rem++
	}
}

// overlap returns the length of the intersection of [a0, a1) and [b0, b1).
func overlap(a0, a1, b0, b1 int) int {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// MSBounds implements the paper's MS_BOUNDS routine (constraint (16)): for
// each device, the number of additional CF/MV rows that must be fetched
// for SME beyond those already present from ME — the SME row range minus
// its overlap with the device's own ME range. CPU cores (isGPU false) need
// no transfers.
func MSBounds(m, s []int, isGPU func(int) bool) []int {
	return boundsBetween(m, s, isGPU)
}

// LSBounds implements LS_BOUNDS (constraint (17)): additional SF rows
// needed for SME beyond those the device itself interpolated.
func LSBounds(l, s []int, isGPU func(int) bool) []int {
	return boundsBetween(l, s, isGPU)
}

func boundsBetween(have, need []int, isGPU func(int) bool) []int {
	var sc boundsScratch
	out := make([]int, len(have))
	boundsBetweenInto(out, have, need, isGPU, &sc)
	return out
}

// boundsScratch holds the prefix-offset vectors of boundsBetweenInto.
type boundsScratch struct {
	offH, offN []int
}

// boundsBetweenInto is boundsBetween writing into out with
// caller-retained scratch. Non-GPU entries are zeroed.
func boundsBetweenInto(out, have, need []int, isGPU func(int) bool, sc *boundsScratch) {
	if len(have) != len(need) {
		panic("sched: bounds vectors of different lengths")
	}
	sc.offH = OffsetsInto(sc.offH, have)
	sc.offN = OffsetsInto(sc.offN, need)
	offH, offN := sc.offH, sc.offN
	for i := range have {
		if !isGPU(i) {
			out[i] = 0
			continue
		}
		ov := overlap(offN[i], offN[i]+need[i], offH[i], offH[i]+have[i])
		out[i] = need[i] - ov
	}
}

// SigmaSplit implements constraints (14) and (15): given the τ2→τtot slack
// and a device's SF-upload speed, σ is the number of missing SF rows that
// fit in the slack and σʳ is the remainder deferred to the next frame.
func SigmaSplit(missing int, slack, sfh2dPerRow float64) (sigma, sigmaR int) {
	if missing <= 0 {
		return 0, 0
	}
	if sfh2dPerRow <= 0 {
		return missing, 0 // free transfers: everything fits
	}
	fit := int(slack / sfh2dPerRow)
	if fit < 0 {
		fit = 0
	}
	if fit > missing {
		fit = missing
	}
	return fit, missing - fit
}
