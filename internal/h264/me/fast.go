package me

import (
	"sync/atomic"

	"feves/internal/h264"
)

// Algorithm selects the integer motion-search strategy. The paper fixes
// Full-Search Block-Matching because its cost is content-independent,
// which makes the per-row workload predictable for the load balancer; the
// fast algorithms below are provided as ablation baselines that trade that
// predictability (and some quality) for far fewer SAD evaluations.
type Algorithm int

const (
	// FullSearch is the paper's FSBM: every displacement in the search
	// area is evaluated.
	FullSearch Algorithm = iota
	// ThreeStep is the classic Three-Step Search: a shrinking 3×3 probe
	// pattern, O(log SA) evaluations.
	ThreeStep
	// Diamond is the Diamond Search: large-diamond refinement until the
	// centre wins, then one small-diamond step.
	Diamond
)

func (a Algorithm) String() string {
	switch a {
	case FullSearch:
		return "full-search"
	case ThreeStep:
		return "three-step"
	case Diamond:
		return "diamond"
	}
	return "invalid"
}

// SearchRowsAlgo runs integer motion estimation with the chosen algorithm
// over macroblock rows [rowLo, rowHi): the full search, or a fast one that
// finds one macroblock-level vector and refines the 41 partitions around it.
// Every algorithm is row-sliceable.
func SearchRowsAlgo(algo Algorithm, cf *h264.Frame, dpb *h264.DPB, cfg Config, field *h264.MVField, rowLo, rowHi int) {
	checkSearchArgs(cf, cfg, field, rowLo, rowHi)
	nrf := dpb.Len()
	if nrf > field.NumRF {
		nrf = field.NumRF
	}
	// The eval counter is accumulated locally and published with a single
	// atomic add per call: one cache-line ping-pong per row slice instead
	// of one per (macroblock, reference).
	var evals int
	for mby := rowLo; mby < rowHi; mby++ {
		for mbx := 0; mbx < cf.MBWidth(); mbx++ {
			for rf := 0; rf < field.NumRF; rf++ {
				switch {
				case rf >= nrf:
					markUnusable(field, mbx, mby, rf)
				case algo == FullSearch:
					evals += searchMB(cf.Y, dpb.Ref(rf).Y, cfg.SearchRange, field, mbx, mby, rf)
				default:
					evals += fastSearchMB(algo, cf.Y, dpb.Ref(rf).Y, cfg.SearchRange, field, mbx, mby, rf)
				}
			}
		}
	}
	if cfg.Evals != nil && evals != 0 {
		atomic.AddInt64(cfg.Evals, int64(evals))
	}
}

// fastSearchMB finds a macroblock-level vector with the fast pattern, then
// gives every partition the best of that vector and its small-diamond
// neighbours. Both steps go through the full search's BandSADs; the second
// also through its fold. It returns the number of macroblock-level SAD
// evaluations performed.
func fastSearchMB(algo Algorithm, cur, ref *h264.Plane, r int, field *h264.MVField, mbx, mby, rf int) int {
	x0, y0 := mbx*h264.MBSize, mby*h264.MBSize
	var lanes h264.MBLanes
	lanes.Load(cur, x0, y0)
	refRaw, stride := ref.Raw(), ref.Stride
	var blk [16]uint32
	evals := 0
	cost16 := func(dx, dy int) int32 {
		evals++
		lanes.BandSADs(0, 4, refRaw[ref.Idx(x0+dx, y0+dy):], stride, &blk)
		var sum uint32
		for _, s := range blk {
			sum += s
		}
		return int32(sum)
	}

	var bx, by int
	switch algo {
	case ThreeStep:
		bx, by = threeStep(cost16, r)
	case Diamond:
		bx, by = diamond(cost16, r)
	default:
		panic("me: unknown fast algorithm")
	}

	// Per-partition refinement around the macroblock vector: the candidate
	// set is the MB vector plus the 4-connected neighbours, clamped to the
	// search range. A neighbour clamped onto an earlier candidate ties with
	// it everywhere and so never wins.
	cands := [5][2]int{{bx, by}, {bx + 1, by}, {bx - 1, by}, {bx, by + 1}, {bx, by - 1}}
	var best bestKeys
	best.reset()
	for i := range cands {
		c := &cands[i]
		c[0], c[1] = clampRange(c[0], r), clampRange(c[1], r)
		lanes.BandSADs(0, 4, refRaw[ref.Idx(x0+c[0], y0+c[1]):], stride, &blk)
		best.fold(&blk, uint64(i))
	}
	for part := range best {
		i, sad := best.at(part)
		field.Set(mbx, mby, part, rf, h264.MV{X: int16(cands[i][0]), Y: int16(cands[i][1])}, sad)
	}
	return evals
}

func clampRange(v, r int) int {
	if v < -r {
		return -r
	}
	if v >= r {
		return r - 1
	}
	return v
}

// threeStep implements the Three-Step Search over ±r.
func threeStep(cost func(dx, dy int) int32, r int) (int, int) {
	step := 1
	for step*2 < r {
		step *= 2
	}
	cx, cy := 0, 0
	best := cost(0, 0)
	for step >= 1 {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := clampRange(cx+dx*step, r), clampRange(cy+dy*step, r)
				if s := cost(nx, ny); s < best {
					best = s
					cx, cy = nx, ny
				}
			}
		}
		step /= 2
	}
	return cx, cy
}

// diamond implements the Diamond Search (large diamond until the centre is
// best, then one small diamond).
func diamond(cost func(dx, dy int) int32, r int) (int, int) {
	large := [8][2]int{{2, 0}, {-2, 0}, {0, 2}, {0, -2}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}
	small := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	cx, cy := 0, 0
	best := cost(0, 0)
	for iter := 0; iter < 4*r; iter++ {
		moved := false
		for _, d := range large {
			nx, ny := clampRange(cx+d[0], r), clampRange(cy+d[1], r)
			if nx == cx && ny == cy {
				continue
			}
			if s := cost(nx, ny); s < best {
				best = s
				cx, cy = nx, ny
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	for _, d := range small {
		nx, ny := clampRange(cx+d[0], r), clampRange(cy+d[1], r)
		if s := cost(nx, ny); s < best {
			best = s
			cx, cy = nx, ny
		}
	}
	return cx, cy
}
