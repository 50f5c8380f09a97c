package codec

import (
	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/rd"
)

// EncodeIntraFrame codes cf as an I-frame using 16×16 (luma) and 8×8
// (chroma) DC prediction from already-reconstructed neighbours, followed by
// TQ, entropy coding, reconstruction and deblocking. The intra frame seeds
// the DPB; per the paper it lies outside the inter-loop whose time the
// framework balances, so it always runs on the host path.
func (e *Encoder) EncodeIntraFrame(cf *h264.Frame) (rd.FrameStats, error) {
	if err := e.checkFrame(cf); err != nil {
		return rd.FrameStats{}, err
	}
	startBits := e.w.Len()

	e.w.WriteUE(0) // frame type: I
	recon := e.codeSlices(cf, nil, e.cfg.IQP, e.cfg.KernelWorkers)
	e.refs.idr(recon, &e.free)
	e.lastRecon = recon
	e.frames++

	y, cb, cr := rd.FramePSNR(cf, recon)
	return rd.FrameStats{
		Poc: cf.Poc, Intra: true,
		Bits:  e.w.Len() - startBits,
		PSNRY: y, PSNRCb: cb, PSNRCr: cr,
	}, nil
}

// dcPredict computes the DC prediction for a size×size block at (x0, y0)
// of plane p, using reconstructed top/left neighbours when available.
// Neighbours above minY (the slice's first luma row, scaled for chroma by
// the caller) are treated as unavailable.
func dcPredict(p *h264.Plane, x0, y0, size, minY int) uint8 {
	var sum, n int32
	if y0 > minY {
		for i := 0; i < size; i++ {
			sum += int32(p.At(x0+i, y0-1))
		}
		n += int32(size)
	}
	if x0 > 0 {
		for j := 0; j < size; j++ {
			sum += int32(p.At(x0-1, y0+j))
		}
		n += int32(size)
	}
	if n == 0 {
		return 128
	}
	return uint8((sum + n/2) / n)
}

// Intra 16×16 luma prediction modes, a subset of the standard's: DC,
// vertical (extend the row above) and horizontal (extend the column to the
// left). The chosen mode is signalled per macroblock with ue(v).
const (
	intraDC = iota
	intraVertical
	intraHorizontal
	numIntraModes
)

// buildIntraPredSlice fills a 16×16 luma prediction for the given mode
// from the already-reconstructed neighbours, honouring the slice boundary
// at luma row minY.
func buildIntraPredSlice(recon *h264.Plane, x0, y0, mode, minY int, pred *[256]uint8) {
	switch mode {
	case intraVertical:
		for x := 0; x < 16; x++ {
			v := recon.At(x0+x, y0-1)
			for y := 0; y < 16; y++ {
				pred[y*16+x] = v
			}
		}
	case intraHorizontal:
		for y := 0; y < 16; y++ {
			v := recon.At(x0-1, y0+y)
			for x := 0; x < 16; x++ {
				pred[y*16+x] = v
			}
		}
	default:
		dc := dcPredict(recon, x0, y0, 16, minY)
		for i := range pred {
			pred[i] = dc
		}
	}
}

// chooseIntraMode picks the available luma mode with the lowest SAD.
// Vertical prediction is unavailable on a slice's first row.
func chooseIntraMode(cf, recon *h264.Frame, x0, y0, minY int) int {
	best, bestCost := intraDC, int32(1)<<30
	var pred [256]uint8
	for mode := 0; mode < numIntraModes; mode++ {
		if mode == intraVertical && y0 == minY {
			continue
		}
		if mode == intraHorizontal && x0 == 0 {
			continue
		}
		buildIntraPredSlice(recon.Y, x0, y0, mode, minY, &pred)
		var sad int32
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				d := int32(cf.Y.At(x0+x, y0+y)) - int32(pred[y*16+x])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad < bestCost {
			best, bestCost = mode, sad
		}
	}
	return best
}

// intraPred fills the prediction of an intra macroblock at luma (x0, y0)
// from its already-reconstructed neighbours: luma in the signalled mode,
// each chroma plane flat at its DC. minY is the first luma row of the
// macroblock's slice.
func intraPred(recon *h264.Frame, x0, y0, mode, minY int, predY *[256]uint8, predCb, predCr *[64]uint8) {
	buildIntraPredSlice(recon.Y, x0, y0, mode, minY, predY)
	cb := dcPredict(recon.Cb, x0/2, y0/2, 8, minY/2)
	cr := dcPredict(recon.Cr, x0/2, y0/2, 8, minY/2)
	for i := range predCb {
		predCb[i], predCr[i] = cb, cr
	}
}

// codeIntraMB codes one intra macroblock; the caller guarantees raster
// order so that prediction sees the already-reconstructed neighbours.
// topY is the first luma row of the macroblock's slice.
func codeIntraMB(hw *entropy.BitWriter, lv *mbLevels, recon *h264.Frame, bi *deblock.BlockInfo, mbx, mby, qp, topY int) {
	x0, y0 := mbx*h264.MBSize, mby*h264.MBSize
	mode := chooseIntraMode(lv.cf, recon, x0, y0, topY)
	hw.WriteUE(uint32(mode))
	var predY [256]uint8
	var predCb, predCr [64]uint8
	intraPred(recon, x0, y0, mode, topY, &predY, &predCb, &predCr)
	_ = reconMB(lv, recon, bi, nil, mbx, mby, &predY, &predCb, &predCr, qp) // only a decoder's levels can fail
}
