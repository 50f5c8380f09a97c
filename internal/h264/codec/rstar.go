package codec

import (
	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/mc"
	"feves/internal/h264/rd"
)

// RunRStar executes the R* module group of the paper — Motion Compensation
// (with partitioning-mode decision), Transform and Quantization, entropy
// coding, Dequantization and Inverse Transform (reconstruction), and
// Deblocking Filtering — as on the single device the load balancer assigns
// R* to. It pushes the reconstructed frame into the DPB and returns the
// frame statistics. On the host the slices are coded, and the planes
// deblocked, KernelWorkers at a time.
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

	if e.poison {
		poisonDecision(&e.dec)
	}
	e.dec.Decide(job.SME, qp)
	if e.cfg.SceneCutThreshold > 0 && meanCostPerPixel(&e.dec) > e.cfg.SceneCutThreshold {
		// Inter prediction failed across the frame (scene change): discard
		// the motion search and code an IDR instead. The decoder sees an
		// ordinary intra frame. The IDR flushes the sub-frame CompleteINT
		// installed along with the rest of the chains.
		stats, err := e.EncodeIntraFrame(cf)
		if err != nil {
			// cf was already validated by BeginFrame; this cannot happen.
			panic(err)
		}
		return stats
	}

	e.w.WriteUE(1)                     // frame type: P
	e.w.WriteSE(int32(qp - e.cfg.PQP)) // per-frame QP delta (rate control)

	recon := e.codeSlices(cf, job, qp, ways)

	e.free.put(e.refs.push(job.Chain, recon))
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

// sliceCoder is what one slice is coded with. Nothing in it is shared with
// another slice — prediction (motion-vector and intra) stops at the slice's
// first row too — so the slices of a frame are coded side by side.
type sliceCoder struct {
	// hw takes the slice's macroblock headers and, with the VLC backend,
	// its residual blocks between them (the Baseline-profile layout; the
	// stateless VLC needs no more isolation than its own writer).
	hw entropy.BitWriter
	// With the arithmetic backend the residual goes to an independent
	// chunk with fresh contexts instead.
	arith entropy.ArithEncoder
	ctx   entropy.ResidualContexts
	lv    mbLevels
}

func newSliceCoders(mode EntropyMode, n int) []sliceCoder {
	scs := make([]sliceCoder, n)
	for i := range scs {
		sc := &scs[i]
		if mode == EntropyArith {
			sc.lv.sink = arithSink{&sc.arith, &sc.ctx}
		} else {
			sc.lv.sink = vlcSink{&sc.hw}
		}
	}
	return scs
}

// slicePass is the frame the slice tasks of one codeSlices call work on.
type slicePass struct {
	e         *Encoder
	cf, recon *h264.Frame
	qp        int
	// job is nil for an intra frame; refs and sfs are its chain's lists
	// (refs' backing array is kept from frame to frame).
	job  *FrameJob
	refs []*h264.Frame
	sfs  []*interp.SubFrame
}

// RunRows codes slices [lo, hi): the kernel of codeSlices.
func (p *slicePass) RunRows(lo, hi int) {
	for s := lo; s < hi; s++ {
		p.codeSlice(s)
	}
}

// codeSlice codes every macroblock of slice s, in raster order, into the
// slice's coder and reconstructs it into the pass's recon.
func (p *slicePass) codeSlice(s int) {
	e := p.e
	sc := &e.slices[s]
	sc.hw.Reset()
	if e.cfg.Entropy == EntropyArith {
		sc.arith.Reset()
		sc.ctx.Reset()
	}
	sc.lv.cf = p.cf
	topRow, end := e.starts[s], e.starts[s+1]
	mbw := p.cf.MBWidth()
	for mby := topRow; mby < end; mby++ {
		for mbx := 0; mbx < mbw; mbx++ {
			if p.job == nil {
				codeIntraMB(&sc.hw, &sc.lv, p.recon, e.bi, mbx, mby, p.qp, topRow*h264.MBSize)
				continue
			}
			d := e.dec.At(mbx, mby)
			// Macroblock header: mode, then per-partition ref and MVD
			// against the slice-local median predictor.
			pred := mc.MedianPredictorSlice(e.repMV, mbw, mbx, mby, topRow)
			sc.hw.WriteUE(uint32(d.Mode))
			for k := 0; k < d.Mode.Count(); k++ {
				sc.hw.WriteUE(uint32(d.Ref[k]))
				sc.hw.WriteSE(int32(d.MV[k].X - pred.X))
				sc.hw.WriteSE(int32(d.MV[k].Y - pred.Y))
			}
			e.repMV[mby*mbw+mbx] = d.MV[0]

			var predY [256]uint8
			var predCb, predCr [64]uint8
			mc.PredictMB(d, p.sfs, p.refs, mbx, mby, &predY, &predCb, &predCr)
			_ = reconMB(&sc.lv, p.recon, e.bi, d, mbx, mby, &predY, &predCb, &predCr, p.qp) // only a decoder's levels can fail
		}
	}
}

// codeSlices is the body R* (job set) and the intra frame (job nil) share
// once the frame header is written: code the slices into a reconstruction
// from the free list, at most ways at a time on the row pool (one slice is a
// batch of one on the caller), put their bits into the main bitstream in
// slice order, deblock (the three planes at a time when ways > 1), and
// append the integrity trailer.
func (e *Encoder) codeSlices(cf *h264.Frame, job *FrameJob, qp, ways int) *h264.Frame {
	p := &e.pass
	p.e, p.cf, p.recon, p.qp, p.job = e, cf, e.frame(), qp, job
	if job != nil {
		p.refs, p.sfs = e.refs.lists(job.Chain, p.refs)
	}
	if e.bi == nil {
		e.bi = deblock.NewBlockInfo(e.cfg.Width, e.cfg.Height)
		e.repMV = make([]h264.MV, len(e.bi.Intra))
	} else if e.poison {
		poisonBlockInfo(e.bi, e.repMV)
	}
	p.recon.Poc, p.recon.IsIntra = cf.Poc, job == nil

	n := len(e.slices)
	h264.ParallelRows(p, 0, n, min(ways, n))

	// With the arithmetic backend each slice's chunk (length-prefixed,
	// byte-aligned) precedes the header region; either way the slices'
	// writers follow bit for bit, and the frame ends on a byte boundary.
	if e.cfg.Entropy == EntropyArith {
		for i := range e.slices {
			chunk := e.slices[i].arith.Finish()
			e.w.WriteUE(uint32(len(chunk)))
			e.w.AlignByte()
			e.w.WriteBytes(chunk)
		}
	}
	for i := range e.slices {
		e.w.Append(&e.slices[i].hw)
	}
	e.w.AlignByte()

	// The planes share no samples and boundary strengths depend only on
	// BlockInfo, so filtering them side by side is bit-exact with the
	// serial filter.
	if ways <= 1 {
		deblock.FilterFrame(p.recon, e.bi, p.qp)
	} else {
		h264.ParallelRows((*planeFilter)(p), 0, 3, 3)
		p.recon.ExtendBorders()
	}
	if e.cfg.Checksum {
		e.w.WriteBits(reconCRC(p.recon), 32)
	}
	return p.recon
}

// planeFilter is the pass as the kernel that deblocks planes [lo, hi).
type planeFilter slicePass

func (f *planeFilter) RunRows(lo, hi int) {
	for p := lo; p < hi; p++ {
		deblock.FilterPlane(f.recon, f.e.bi, f.qp, p)
	}
}
