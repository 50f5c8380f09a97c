// Package mc implements the Motion Compensation inter-loop module of the
// FEVES reproduction: per-macroblock partitioning-mode decision over the 7
// modes using the refined SME costs plus a λ-weighted motion-rate estimate,
// and the construction of the luma/chroma prediction signal from the
// quarter-pel SF structure and the reference chroma planes.
//
// Per the paper, MC belongs to the R* module group that runs on a single
// (fastest) device, so mode decision may use sequential raster-order motion
// vector prediction without constraining the load balancer.
package mc

import (
	"fmt"
	"math"

	"feves/internal/h264"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
)

// Lambda returns the JM-style motion λ used to weight motion-vector rate
// against SAD in mode decision: sqrt(0.85·2^((QP−12)/3)).
func Lambda(qp int) float64 {
	return math.Sqrt(0.85 * math.Pow(2, float64(qp-12)/3))
}

// Decision is the per-frame mode-decision output: one MBDecision per
// macroblock in raster order.
type Decision struct {
	MBW, MBH int
	MBs      []h264.MBDecision
	// repMV holds the representative (first-partition) vector of each
	// decided macroblock, used as the neighbour predictor.
	repMV []h264.MV
}

// At returns the decision for macroblock (mbx, mby).
func (d *Decision) At(mbx, mby int) *h264.MBDecision { return &d.MBs[mby*d.MBW+mbx] }

// DecideFrame selects, for every macroblock, the partition mode and
// per-partition reference frame minimizing SAD + λ·rate(MVD, ref). The MVD
// rate uses a per-macroblock median predictor over the left, top and
// top-right neighbours' decided 16×16-equivalent vectors (a simplification
// of the per-partition predictor of the standard, documented in DESIGN.md).
func DecideFrame(smeField *h264.MVField, qp int) *Decision {
	dec := new(Decision)
	dec.Decide(smeField, qp)
	return dec
}

// Decide is DecideFrame into dec, whose buffers are reused when they fit:
// every entry is overwritten, whatever dec held.
func (dec *Decision) Decide(smeField *h264.MVField, qp int) {
	mbw, mbh := smeField.MBW, smeField.MBH
	dec.MBW, dec.MBH = mbw, mbh
	if cap(dec.MBs) < mbw*mbh {
		dec.MBs = make([]h264.MBDecision, mbw*mbh)
		dec.repMV = make([]h264.MV, mbw*mbh)
	}
	dec.MBs, dec.repMV = dec.MBs[:mbw*mbh], dec.repMV[:mbw*mbh]
	lambda := Lambda(qp)

	for mby := 0; mby < mbh; mby++ {
		for mbx := 0; mbx < mbw; mbx++ {
			pred := MedianPredictor(dec.repMV, mbw, mbh, mbx, mby)
			best := h264.MBDecision{Cost: math.MaxInt32}
			for _, mode := range h264.AllModes {
				cand, ok := evaluateMode(smeField, mbx, mby, mode, pred, lambda)
				if ok && cand.Cost < best.Cost {
					best = cand
				}
			}
			if best.Cost == math.MaxInt32 {
				// No usable reference (should not happen once the DPB holds
				// at least one frame) — fall back to zero-MV 16×16 on ref 0.
				best = h264.MBDecision{Mode: h264.Part16x16}
			}
			dec.MBs[mby*mbw+mbx] = best
			dec.repMV[mby*mbw+mbx] = best.MV[0]
		}
	}
}

func evaluateMode(f *h264.MVField, mbx, mby int, mode h264.PartMode, pred h264.MV, lambda float64) (h264.MBDecision, bool) {
	d := h264.MBDecision{Mode: mode}
	var total int64
	for k := 0; k < mode.Count(); k++ {
		part := mode.Base() + k
		bestCost := int64(math.MaxInt64)
		var bestRF int
		var bestMV h264.MV
		for rf := 0; rf < f.NumRF; rf++ {
			mv, sad := f.Get(mbx, mby, part, rf)
			if sad == math.MaxInt32 {
				continue
			}
			rate := entropy.SEBits(int32(mv.X-pred.X)) +
				entropy.SEBits(int32(mv.Y-pred.Y)) +
				entropy.UEBits(uint32(rf))
			cost := int64(sad) + int64(lambda*float64(rate)+0.5)
			if cost < bestCost {
				bestCost = cost
				bestRF = rf
				bestMV = mv
			}
		}
		if bestCost == math.MaxInt64 {
			return d, false
		}
		d.Ref[k] = uint8(bestRF)
		d.MV[k] = bestMV
		total += bestCost
	}
	if total > math.MaxInt32 {
		total = math.MaxInt32
	}
	d.Cost = int32(total)
	return d, true
}

// MedianPredictor returns the component-wise median of the decided
// neighbour vectors (left, top, top-right), with missing neighbours
// treated as zero, matching the spirit of the H.264 median predictor.
func MedianPredictor(repMV []h264.MV, mbw, mbh, mbx, mby int) h264.MV {
	return MedianPredictorSlice(repMV, mbw, mbx, mby, 0)
}

// MedianPredictorSlice is the slice-aware predictor: neighbours above the
// slice's first row (topRow) are unavailable, so prediction never crosses
// a slice boundary.
func MedianPredictorSlice(repMV []h264.MV, mbw, mbx, mby, topRow int) h264.MV {
	var a, b, c h264.MV
	if mbx > 0 {
		a = repMV[mby*mbw+mbx-1]
	}
	if mby > topRow {
		b = repMV[(mby-1)*mbw+mbx]
	}
	if mby > topRow && mbx+1 < mbw {
		c = repMV[(mby-1)*mbw+mbx+1]
	} else if mbx > 0 && mby > topRow {
		c = repMV[(mby-1)*mbw+mbx-1] // top-left substitution at the right edge
	}
	return h264.MV{X: median3(a.X, b.X, c.X), Y: median3(a.Y, b.Y, c.Y)}
}

func median3(a, b, c int16) int16 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// PredictMB builds the 16×16 luma and 8×8 chroma prediction of macroblock
// (mbx, mby) from the chosen decision. sfs[rf] supplies quarter-pel luma;
// refs[rf] supplies the chroma planes (1/8-pel bilinear interpolation).
func PredictMB(dec *h264.MBDecision, sfs []*interp.SubFrame, refs []*h264.Frame,
	mbx, mby int, predY *[256]uint8, predCb, predCr *[64]uint8) {
	mode := dec.Mode
	w, h := mode.Size()
	for k := 0; k < mode.Count(); k++ {
		ox, oy := mode.Offset(k)
		rf := int(dec.Ref[k])
		mv := dec.MV[k]
		sf := sfs[rf]
		if sf == nil {
			panic(fmt.Sprintf("mc: decision references missing sub-frame %d", rf))
		}
		x0, y0 := mbx*h264.MBSize+ox, mby*h264.MBSize+oy
		// Luma: the fractional phase (mv.X&3, mv.Y&3) is constant over the
		// partition, so every sample comes from one sub-position plane and
		// each output row is a contiguous run of it — a straight copy.
		plane := sf.Planes[(int(mv.Y)&3)*4+(int(mv.X)&3)]
		sx, sy := x0+int(mv.X)>>2, y0+int(mv.Y)>>2
		for j := 0; j < h; j++ {
			src := plane.RowPadded(sy + j)[plane.Pad+sx : plane.Pad+sx+w]
			copy(predY[(oy+j)*16+ox:(oy+j)*16+ox+w], src)
		}
		// Chroma: the luma quarter-pel vector is a chroma eighth-pel vector;
		// the bilinear weights are constant over the partition, so hoist them
		// and walk two source rows per output row.
		cw, ch := w/2, h/2
		cx0, cy0 := x0/2, y0/2
		cox, coy := ox/2, oy/2
		ix, iy := int(mv.X)>>3, int(mv.Y)>>3
		fx, fy := int32(int(mv.X)&7), int32(int(mv.Y)&7)
		w00 := (8 - fx) * (8 - fy)
		w01 := fx * (8 - fy)
		w10 := (8 - fx) * fy
		w11 := fx * fy
		for _, cp := range [2]struct {
			src *h264.Plane
			dst *[64]uint8
		}{{refs[rf].Cb, predCb}, {refs[rf].Cr, predCr}} {
			p := cp.src
			for j := 0; j < ch; j++ {
				r0 := p.RowPadded(cy0 + j + iy)[p.Pad+cx0+ix:]
				r1 := p.RowPadded(cy0 + j + iy + 1)[p.Pad+cx0+ix:]
				dst := cp.dst[(coy+j)*8+cox : (coy+j)*8+cox+cw]
				for i := 0; i < cw; i++ {
					dst[i] = uint8((w00*int32(r0[i]) + w01*int32(r0[i+1]) +
						w10*int32(r1[i]) + w11*int32(r1[i+1]) + 32) >> 6)
				}
			}
		}
	}
}

// chromaSample performs the H.264 eighth-pel bilinear chroma interpolation
// for chroma sample (x, y) displaced by luma quarter-pel vector mv.
func chromaSample(p *h264.Plane, x, y int, mv h264.MV) uint8 {
	ix, iy := int(mv.X)>>3, int(mv.Y)>>3
	fx, fy := int32(int(mv.X)&7), int32(int(mv.Y)&7)
	a := int32(p.At(x+ix, y+iy))
	b := int32(p.At(x+ix+1, y+iy))
	c := int32(p.At(x+ix, y+iy+1))
	d := int32(p.At(x+ix+1, y+iy+1))
	return uint8(((8-fx)*(8-fy)*a + fx*(8-fy)*b + (8-fx)*fy*c + fx*fy*d + 32) >> 6)
}
