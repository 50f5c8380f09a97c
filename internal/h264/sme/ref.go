package sme

import (
	"math"

	"feves/internal/h264"
	"feves/internal/h264/interp"
)

// RefineRowsRef is the scalar sample-at-a-time refinement kernel retained
// as the bit-exactness oracle for the cell-memoized SWAR kernel and as the
// baseline the device calibration and the bench-regression speedup ratios
// are measured against. It matches RefineRows exactly (same candidate scan
// order, same tie-breaking) but shares none of its SAD code.
func RefineRowsRef(cf *h264.Frame, sfs []*interp.SubFrame, meField, out *h264.MVField, rowLo, rowHi int) {
	checkRefineArgs(cf, sfs, meField, out, rowLo, rowHi)
	for mby := rowLo; mby < rowHi; mby++ {
		for mbx := 0; mbx < cf.MBWidth(); mbx++ {
			for rf := 0; rf < meField.NumRF; rf++ {
				refineMBRef(cf, sfs[rf], meField, out, mbx, mby, rf)
			}
		}
	}
}

func refineMBRef(cf *h264.Frame, sf *interp.SubFrame, meField, out *h264.MVField, mbx, mby, rf int) {
	for _, mode := range h264.AllModes {
		w, h := mode.Size()
		for k := 0; k < mode.Count(); k++ {
			part := mode.Base() + k
			imv, icost := meField.Get(mbx, mby, part, rf)
			if icost == math.MaxInt32 || sf == nil {
				out.Set(mbx, mby, part, rf, imv.Scale4(), math.MaxInt32)
				continue
			}
			ox, oy := mode.Offset(k)
			x, y := mbx*h264.MBSize+ox, mby*h264.MBSize+oy

			center := imv.Scale4()
			best := center
			bestCost := subSADRef(cf.Y, sf, x, y, w, h, center)
			best, bestCost = refineStepFromRef(cf.Y, sf, x, y, w, h, best, bestCost, 2)
			best, bestCost = refineStepFromRef(cf.Y, sf, x, y, w, h, best, bestCost, 1)
			out.Set(mbx, mby, part, rf, best, bestCost)
		}
	}
}

func refineStepFromRef(cur *h264.Plane, sf *interp.SubFrame, x, y, w, h int, best h264.MV, bestCost int32, step int16) (h264.MV, int32) {
	center := best
	for dy := int16(-1); dy <= 1; dy++ {
		for dx := int16(-1); dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			cand := h264.MV{X: center.X + dx*step, Y: center.Y + dy*step}
			c := subSADRef(cur, sf, x, y, w, h, cand)
			if c < bestCost {
				bestCost = c
				best = cand
			}
		}
	}
	return best, bestCost
}

func subSADRef(cur *h264.Plane, sf *interp.SubFrame, x, y, w, h int, mv h264.MV) int32 {
	fx, fy := int(mv.X)&3, int(mv.Y)&3
	px, py := int(mv.X)>>2, int(mv.Y)>>2
	plane := sf.Planes[fy*4+fx]
	var sum int32
	for j := 0; j < h; j++ {
		cRow := cur.RowPadded(y + j)[cur.Pad+x:]
		for i := 0; i < w; i++ {
			a := cRow[i]
			b := plane.At(x+i+px, y+j+py)
			if a > b {
				sum += int32(a - b)
			} else {
				sum += int32(b - a)
			}
		}
	}
	return sum
}
