// Package sme implements the Sub-pixel Motion Estimation inter-loop module
// of the FEVES reproduction. Starting from the integer-pel vectors found by
// full-search ME, each of the 41 partitions of every macroblock is refined
// in two steps on the interpolated SF structure: a half-pel step (the eight
// half-pel neighbours of the integer position) followed by a quarter-pel
// step (the eight quarter-pel neighbours of the best half-pel position) —
// the classical refinement used by the JM reference encoder.
//
// The kernel extends the 4×4 SAD-reuse decomposition of the integer search
// into the refinement, on the integer search's own primitive. Every
// partition is a union of 4×4 cells of the macroblock grid (all 41 partition
// offsets and sizes are multiples of 4), and the two steps move a partition
// at most three quarter-pels from its integer vector. So per (macroblock,
// reference) the cell SADs are memoized by displacement in direct-indexed
// windows, one per 4×4-pel tile of integer vectors some partition starts
// from — the vectors of a macroblock mostly coincide or sit side by side, so
// one window usually serves all 41 — and a window entry is filled a four-row
// band at a time (h264.MBLanes.BandSADs against the right sub-position
// plane, the macroblock split into lanes once) for exactly the bands a
// probing partition covers.
//
// RefineRows is row-sliceable: a device assigned macroblock rows [lo, hi)
// needs the ME vectors for those rows (the paper's MV→SME transfers) and
// read access to the SF (the SF(RF)→SME transfers), and produces vectors
// bit-exact with a single-device refinement.
package sme

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"feves/internal/h264"
	"feves/internal/h264/interp"
)

const (
	// reach is how far, in quarter-pels, the half-pel step (±2) and then
	// the quarter-pel step (±1) can move a partition from its integer
	// vector.
	reach = 3
	// A window serves the integer vectors of one tile, 1<<tileBits pels a
	// side. Wider tiles share the evaluations of neighbouring vectors
	// (the five candidates a fast search leaves differ by one pel) at the
	// price of a larger window; measured on 720p diamond and CIF
	// full-search fields, 4 pels is where the first stops paying.
	tileBits = 2
	tileQpel = 4 << tileBits
	winSide  = tileQpel - 4 + 2*reach + 1
)

// window memoizes the cell SADs of one macroblock at the winSide²
// quarter-pel displacements the partitions starting in one tile can reach,
// from (x0, y0) up: cell[i] holds the sixteen cells of displacement i — a
// word of four 16-bit lanes per band, left to right from the low end (a cell
// SAD is at most 16 × 255) — of which the four-row bands in bands[i] have
// been computed.
type window struct {
	tile   h264.MV // integer vector >> tileBits
	x0, y0 int
	bands  [winSide * winSide]uint8
	cell   [winSide * winSide][4]uint64
}

// scratch is the working set of one RefineRows call: the current macroblock
// in lane form and one window per tile its partitions' integer vectors fall
// in — mostly one; 41 partitions cannot open more than 41.
type scratch struct {
	lanes h264.MBLanes
	wins  [h264.TotalPartitions]window
	open  int // windows of the current (macroblock, reference)
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// window returns the window serving integer vector imv, opening an empty
// one if no partition of this (macroblock, reference) started in its tile
// yet.
func (s *scratch) window(imv h264.MV) *window {
	tile := h264.MV{X: imv.X >> tileBits, Y: imv.Y >> tileBits}
	for i := range s.wins[:s.open] {
		if s.wins[i].tile == tile {
			return &s.wins[i]
		}
	}
	w := &s.wins[s.open]
	s.open++
	w.tile = tile
	w.x0, w.y0 = int(tile.X)*tileQpel-reach, int(tile.Y)*tileQpel-reach
	w.bands = [winSide * winSide]uint8{}
	return w
}

// RefineRows refines macroblock rows [rowLo, rowHi). meField holds the
// integer-pel FSBM output; out receives quarter-pel vectors and SAD costs.
// sfs[rf] is the interpolated sub-frame of reference rf; entries may be nil
// for DPB ramp-up references, whose costs are passed through as unusable.
func RefineRows(cf *h264.Frame, sfs []*interp.SubFrame, meField, out *h264.MVField, rowLo, rowHi int) {
	checkRefineArgs(cf, sfs, meField, out, rowLo, rowHi)
	s := scratchPool.Get().(*scratch)
	for mby := rowLo; mby < rowHi; mby++ {
		for mbx := 0; mbx < cf.MBWidth(); mbx++ {
			s.lanes.Load(cf.Y, mbx*h264.MBSize, mby*h264.MBSize)
			for rf := 0; rf < meField.NumRF; rf++ {
				refineMB(sfs[rf], meField, out, mbx, mby, rf, s)
			}
		}
	}
	scratchPool.Put(s)
}

func checkRefineArgs(cf *h264.Frame, sfs []*interp.SubFrame, meField, out *h264.MVField, rowLo, rowHi int) {
	if meField.MBW != out.MBW || meField.MBH != out.MBH || meField.NumRF != out.NumRF {
		panic("sme: ME and output field geometry mismatch")
	}
	if meField.MBW != cf.MBWidth() || meField.MBH != cf.MBHeight() {
		panic("sme: field does not match frame geometry")
	}
	if rowLo < 0 || rowHi > cf.MBHeight() || rowLo >= rowHi {
		panic(fmt.Sprintf("sme: bad row range [%d,%d)", rowLo, rowHi))
	}
	if len(sfs) < meField.NumRF {
		panic(fmt.Sprintf("sme: %d sub-frames for %d reference slots", len(sfs), meField.NumRF))
	}
}

// shape is where one of the 41 partitions sits on the macroblock's cell grid:
// the four-row bands [lo, hi) it covers, as a range and as a bit set, and per
// band the lanes of a window entry's word that are its cell columns (zero for
// a band it does not cover).
type shape struct {
	lo, hi int
	bands  uint8
	lanes  [4]uint64
}

var shapes = func() (t [h264.TotalPartitions]shape) {
	for _, mode := range h264.AllModes {
		w, h := mode.Size()
		for k := 0; k < mode.Count(); k++ {
			ox, oy := mode.Offset(k)
			sh := &t[mode.Base()+k]
			sh.lo, sh.hi = oy/4, (oy+h)/4
			var cols uint64
			for ci := ox / 4; ci < (ox+w)/4; ci++ {
				cols |= 0xFFFF << (16 * ci)
			}
			for b := sh.lo; b < sh.hi; b++ {
				sh.bands |= 1 << b
				sh.lanes[b] = cols
			}
		}
	}
	return t
}()

func refineMB(sf *interp.SubFrame, meField, out *h264.MVField, mbx, mby, rf int, s *scratch) {
	s.open = 0 // cell SADs are only shareable within one (MB, ref)
	p := probe{sf: sf, lanes: &s.lanes, x0: mbx * h264.MBSize, y0: mby * h264.MBSize}
	for part := range shapes {
		imv, icost := meField.Get(mbx, mby, part, rf)
		if icost == math.MaxInt32 || sf == nil {
			out.Set(mbx, mby, part, rf, imv.Scale4(), math.MaxInt32)
			continue
		}
		p.win, p.shape = s.window(imv), &shapes[part]
		bx, by := int(imv.X)*4, int(imv.Y)*4 // best displacement so far
		bestCost := p.sad(bx, by)
		bx, by, bestCost = p.step(bx, by, bestCost, 2)
		bx, by, bestCost = p.step(bx, by, bestCost, 1)
		out.Set(mbx, mby, part, rf, h264.MV{X: int16(bx), Y: int16(by)}, bestCost)
	}
}

// probe is one partition's view of the refinement: the macroblock at
// (x0, y0) in lane form, the window serving the partition's integer vector
// and the partition's place on the cell grid.
type probe struct {
	sf     *interp.SubFrame
	lanes  *h264.MBLanes
	x0, y0 int
	win    *window
	shape  *shape
}

// step evaluates the eight neighbours at the given quarter-pel step around
// (cx, cy), keeping the incumbent on ties (deterministic scan order).
func (p *probe) step(cx, cy int, bestCost int32, step int) (int, int, int32) {
	bx, by := cx, cy
	for dy := -step; dy <= step; dy += step {
		for dx := -step; dx <= step; dx += step {
			if dx == 0 && dy == 0 {
				continue
			}
			if c := p.sad(cx+dx, cy+dy); c < bestCost {
				bestCost = c
				bx, by = cx+dx, cy+dy
			}
		}
	}
	return bx, by, bestCost
}

// sad returns the SAD of the partition against the sub-pel reference
// displaced by (mvx, mvy) quarter-pels, as the sum of its cells, first
// filling whichever of its bands the window does not hold yet.
func (p *probe) sad(mvx, mvy int) int32 {
	i := (mvy-p.win.y0)*winSide + mvx - p.win.x0
	cell, sh := &p.win.cell[i], p.shape
	if have := p.win.bands[i]; have&sh.bands != sh.bands {
		plane := p.sf.Planes[(mvy&3)*4+(mvx&3)]
		// The arithmetic shift floors a negative vector's integer part.
		ref := plane.Raw()[plane.Idx(p.x0+mvx>>2, p.y0+mvy>>2):]
		var blk [16]uint32
		for b := sh.lo; b < sh.hi; b++ {
			if have>>b&1 == 0 {
				p.lanes.BandSADs(b, b+1, ref, plane.Stride, &blk)
				c := blk[b*4 : b*4+4 : b*4+4]
				cell[b] = uint64(c[0]) | uint64(c[1])<<16 | uint64(c[2])<<32 | uint64(c[3])<<48
			}
		}
		p.win.bands[i] = have | sh.bands
	}
	// The lanes mask a band the partition does not cover, computed or not.
	// A lane sums at most four cells here and the lanes at most sixteen:
	// neither overflows its sixteen bits.
	sum := cell[0]&sh.lanes[0] + cell[1]&sh.lanes[1] + cell[2]&sh.lanes[2] + cell[3]&sh.lanes[3]
	return int32(sum * 0x0001000100010001 >> 48) // the four lanes added up
}

// SubSAD computes the SAD between the w×h current-frame block at (x, y) and
// the sub-pel reference block displaced by the quarter-pel vector mv, four
// samples per step (partition widths are multiples of 4).
func SubSAD(cur *h264.Plane, sf *interp.SubFrame, x, y, w, h int, mv h264.MV) int32 {
	fx, fy := int(mv.X)&3, int(mv.Y)&3
	px, py := int(mv.X)>>2, int(mv.Y)>>2
	plane := sf.Planes[fy*4+fx]
	curRaw, refRaw := cur.Raw(), plane.Raw()
	var sum int32
	for j := 0; j < h; j++ {
		co := cur.Idx(x, y+j)
		ro := plane.Idx(x+px, y+j+py)
		for i := 0; i < w; i += 4 {
			c := binary.LittleEndian.Uint32(curRaw[co+i:])
			r := binary.LittleEndian.Uint32(refRaw[ro+i:])
			sum += h264.SAD4(c, r)
		}
	}
	return sum
}
