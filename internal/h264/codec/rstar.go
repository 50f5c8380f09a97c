package codec

import (
	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/mc"
	"feves/internal/h264/rd"
)

// filterRecon deblocks a reconstructed frame, filtering the three planes
// concurrently when ways > 1. The planes share no samples and boundary
// strengths depend only on BlockInfo, so the plane-parallel result is
// bit-exact with the serial filter.
func filterRecon(recon *h264.Frame, bi *deblock.BlockInfo, qp, ways int) {
	if ways <= 1 {
		deblock.FilterFrame(recon, bi, qp)
		return
	}
	h264.ParallelRows(h264.RowFunc(func(lo, hi int) {
		for p := lo; p < hi; p++ {
			deblock.FilterPlane(recon, bi, qp, p)
		}
	}), 0, 3, 3)
	recon.ExtendBorders()
}

// RunRStar executes the R* module group of the paper — Motion Compensation
// (with partitioning-mode decision), Transform and Quantization, entropy
// coding, Dequantization and Inverse Transform (reconstruction), and
// Deblocking Filtering — sequentially, as on the single device the load
// balancer assigns R* to. It pushes the reconstructed frame into the DPB
// and returns the frame statistics. Only deblocking is split, across
// KernelWorkers.
func (e *Encoder) RunRStar(job *FrameJob) rd.FrameStats {
	return e.runRStar(job, e.cfg.KernelWorkers)
}

func (e *Encoder) runRStar(job *FrameJob, ways int) rd.FrameStats {
	if !job.intComplete {
		panic("codec: RunRStar before CompleteINT")
	}
	cf := job.CF
	qp := e.frameQP()
	startBits := e.w.Len()

	dec := mc.DecideFrame(job.SME, qp)
	if e.cfg.SceneCutThreshold > 0 && meanCostPerPixel(dec) > e.cfg.SceneCutThreshold {
		// Inter prediction failed across the frame (scene change): discard
		// the motion search and code an IDR instead. The decoder sees an
		// ordinary intra frame.
		stats, err := e.EncodeIntraFrame(cf)
		if err != nil {
			// cf was already validated by BeginFrame; this cannot happen.
			panic(err)
		}
		return stats
	}
	recon := h264.NewFrame(cf.W, cf.H)
	bi := deblock.NewBlockInfo(cf.W, cf.H)
	mbw, mbh := cf.MBWidth(), cf.MBHeight()

	refs, sfs := e.refs.lists(job.Chain)

	e.w.WriteUE(1)                     // frame type: P
	e.w.WriteSE(int32(qp - e.cfg.PQP)) // per-frame QP delta (rate control)

	// Header bits and residual blocks may go to different sinks: with the
	// arithmetic backend the residual forms one independent chunk per
	// slice, emitted before the header region (see assembleFrame).
	starts := sliceStarts(mbh, e.cfg.sliceCount())
	hw, sinks := e.beginFrameEntropy(len(starts))
	repMV := make([]h264.MV, mbw*mbh)
	for mby := 0; mby < mbh; mby++ {
		topRow := sliceTopRow(starts, mby)
		lv := mbLevels{cf: cf, sink: sinks[sliceIndex(starts, mby)]}
		for mbx := 0; mbx < mbw; mbx++ {
			d := dec.At(mbx, mby)
			// Macroblock header: mode, then per-partition ref and MVD
			// against the slice-local median predictor.
			pred := mc.MedianPredictorSlice(repMV, mbw, mbx, mby, topRow)
			hw.WriteUE(uint32(d.Mode))
			for k := 0; k < d.Mode.Count(); k++ {
				hw.WriteUE(uint32(d.Ref[k]))
				hw.WriteSE(int32(d.MV[k].X - pred.X))
				hw.WriteSE(int32(d.MV[k].Y - pred.Y))
			}
			repMV[mby*mbw+mbx] = d.MV[0]

			var predY [256]uint8
			var predCb, predCr [64]uint8
			mc.PredictMB(d, sfs, refs, mbx, mby, &predY, &predCb, &predCr)
			_ = reconMB(&lv, recon, bi, d, mbx, mby, &predY, &predCb, &predCr, qp) // only a decoder's levels can fail
		}
	}
	e.assembleFrame(hw, sinks)

	filterRecon(recon, bi, qp, ways)
	if e.cfg.Checksum {
		e.w.WriteBits(reconCRC(recon), 32)
	}
	recon.Poc = cf.Poc
	e.refs.push(job.Chain, recon)
	e.lastRecon = recon
	e.frames++

	y, cb, cr := rd.FramePSNR(cf, recon)
	bits := e.w.Len() - startBits
	if e.rc != nil {
		e.rc.Update(bits)
	}
	return rd.FrameStats{
		Poc: cf.Poc, Intra: false,
		Bits:  bits,
		PSNRY: y, PSNRCb: cb, PSNRCr: cr,
	}
}

// meanCostPerPixel averages the mode-decision cost (SAD + λ·rate) over
// the frame's pixels — the scene-cut detector's signal.
func meanCostPerPixel(dec *mc.Decision) float64 {
	var total float64
	for i := range dec.MBs {
		total += float64(dec.MBs[i].Cost)
	}
	return total / float64(len(dec.MBs)*h264.MBSize*h264.MBSize)
}

// sliceIndex returns the index of the slice containing row mby.
func sliceIndex(starts []int, mby int) int {
	idx := 0
	for i, st := range starts {
		if st <= mby {
			idx = i
		}
	}
	return idx
}

// beginFrameEntropy returns the header writer and one residual sink per
// slice. With the VLC backend everything goes to the main bitstream
// (headers and blocks interleave exactly as in the Baseline-profile
// layout, and the stateless VLC needs no per-slice isolation); with the
// arithmetic backend headers accumulate in a side writer and every slice
// gets an independent arithmetic chunk with fresh contexts.
func (e *Encoder) beginFrameEntropy(slices int) (*entropy.BitWriter, []blockSink) {
	sinks := make([]blockSink, slices)
	if e.cfg.Entropy == EntropyArith {
		for i := range sinks {
			sinks[i] = arithSink{
				e:  entropy.NewArithEncoder(),
				rc: entropy.NewResidualContexts(),
			}
		}
		return entropy.NewBitWriter(), sinks
	}
	for i := range sinks {
		sinks[i] = vlcSink{e.w}
	}
	return e.w, sinks
}

// assembleFrame finalizes one frame's payload in the main bitstream: with
// VLC everything is already in place; with the arithmetic backend each
// slice's chunk (length-prefixed, byte-aligned) and then the header region
// are appended.
func (e *Encoder) assembleFrame(hw *entropy.BitWriter, sinks []blockSink) {
	if _, ok := sinks[0].(arithSink); ok {
		for _, sk := range sinks {
			chunk := sk.(arithSink).e.Finish()
			e.w.WriteUE(uint32(len(chunk)))
			e.w.AlignByte()
			e.w.WriteBytes(chunk)
		}
		e.w.WriteBytes(hw.Bytes()) // Bytes() zero-pads hw to a boundary
		return
	}
	e.w.AlignByte()
}
