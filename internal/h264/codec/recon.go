package codec

import (
	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/interp"
	"feves/internal/h264/transform"
)

// refChains is the reference state an encoder and the decoder of its stream
// must agree on frame for frame: one decoded-picture buffer per reference
// chain, the interpolated sub-frame of every buffered frame, and the place
// in the round robin that hands inter frames to chains. Both hold one and
// move it only through the transitions below, so the two cannot drift.
//
// A single-chain stream has exactly one buffer; with two chains, inter
// frames alternate between them, so each chain holds the shared intra seed
// plus only its own reconstructed frames.
type refChains struct {
	dpb []*h264.DPB
	// sf[c][i] is the sub-frame of dpb[c].Ref(i), in a list always NumRF
	// long whose tail is nil while the chain ramps up — the shape SME and MC
	// index by reference number. Ref(0) has no sub-frame until the frame
	// that predicts from it installs one: INT produces it during that
	// frame's τ1 interval.
	sf [][]*interp.SubFrame
	// sinceIDR counts the inter frames pushed since the last IDR. Frames are
	// decoded serially in coded order, which is the encoder's completion
	// order, so the count selects the same chain on both sides.
	sinceIDR int
}

func newRefChains(chains, numRF int) *refChains {
	rc := &refChains{
		dpb: make([]*h264.DPB, chains),
		sf:  make([][]*interp.SubFrame, chains),
	}
	for c := range rc.dpb {
		rc.dpb[c] = h264.NewDPB(numRF)
		rc.sf[c] = make([]*interp.SubFrame, numRF)
	}
	return rc
}

// next is the chain the next serially coded inter frame uses.
func (rc *refChains) next() int { return rc.sinceIDR % len(rc.dpb) }

// freeList holds the reconstructions and sub-frames that left the chains:
// nothing references them, so the next frame may overwrite them.
type freeList struct {
	frames []*h264.Frame
	sfs    []*interp.SubFrame
}

// put adds what an eviction handed back; either may be nil.
func (fl *freeList) put(f *h264.Frame, sf *interp.SubFrame) {
	if f != nil {
		fl.frames = append(fl.frames, f)
	}
	if sf != nil {
		fl.sfs = append(fl.sfs, sf)
	}
}

// holds reports whether a chain from index from on still references f.
func (rc *refChains) holds(from int, f *h264.Frame) bool {
	for _, dpb := range rc.dpb[from:] {
		for i := 0; i < dpb.Len(); i++ {
			if dpb.Ref(i) == f {
				return true
			}
		}
	}
	return false
}

// idr applies IDR semantics: every chain and its sub-frames are flushed, so
// prediction never crosses the intra frame, and all chains are seeded with
// the same reconstruction — the shared root their first inter frames
// predict from. What the flush evicts goes to free when it is non-nil (a
// decoder's frames belong to its caller). The previous seed may still sit
// in several chains: the last one flushed hands it over, once.
func (rc *refChains) idr(recon *h264.Frame, free *freeList) {
	for c, dpb := range rc.dpb {
		if free != nil {
			for i := 0; i < dpb.Len(); i++ {
				if f := dpb.Ref(i); !rc.holds(c+1, f) {
					free.put(f, nil)
				}
			}
			for _, sf := range rc.sf[c] {
				free.put(nil, sf)
			}
		}
		dpb.Clear()
		clear(rc.sf[c])
	}
	for _, dpb := range rc.dpb {
		dpb.Push(recon)
	}
	rc.sinceIDR = 0
}

// installSF makes sf the sub-frame of the chain's reference 0, shifting the
// older ones one reference back. Each push is preceded by exactly one
// install, so the list holds as many sub-frames as the DPB holds frames; the
// slot shifted off the end is empty, the push before having taken its
// sub-frame along with its frame.
func (rc *refChains) installSF(chain int, sf *interp.SubFrame) {
	l := rc.sf[chain]
	copy(l[1:], l)
	l[0] = sf
}

// push completes an inter frame: recon becomes the chain's reference 0 and
// the round robin moves on. It returns what the push evicted, nil while the
// chain ramps up: the sub-frame of the oldest reference, and the reference
// itself unless another chain still predicts from it (the IDR seed sits in
// every chain until the last one evicts it).
func (rc *refChains) push(chain int, recon *h264.Frame) (evicted *h264.Frame, evictedSF *interp.SubFrame) {
	if evicted = rc.dpb[chain].Push(recon); evicted != nil {
		l := rc.sf[chain]
		evictedSF, l[len(l)-1] = l[len(l)-1], nil
		if rc.holds(0, evicted) {
			evicted = nil
		}
	}
	rc.sinceIDR++
	return evicted, evictedSF
}

// lists returns the chain's reference frames, most recent first, appended to
// refs[:0], and the sub-frame list aligned with them (NumRF long, nil beyond
// the references).
func (rc *refChains) lists(chain int, refs []*h264.Frame) ([]*h264.Frame, []*interp.SubFrame) {
	dpb := rc.dpb[chain]
	refs = refs[:0]
	for i := 0; i < dpb.Len(); i++ {
		refs = append(refs, dpb.Ref(i))
	}
	return refs, rc.sf[chain]
}

// mbLevels is where reconMB gets the quantized levels of a block. An
// encoder (cf set) takes the residual against the source frame, runs TQ and
// codes the levels to sink; a decoder reads them from src. It is a concrete
// type on purpose: behind an interface or closure the caller's prediction
// buffers escape to the heap, three allocations a macroblock.
type mbLevels struct {
	cf   *h264.Frame
	sink blockSink
	src  blockSource
	// blk is the one block buffer reconMB walks a macroblock with. It
	// escapes through the entropy backend's interface, so it lives here
	// rather than on reconMB's stack; both directions overwrite all
	// sixteen levels.
	blk [16]int32
}

// block fills blk with the levels of the 4×4 block at (x, y) of plane c,
// predicted by pred (row stride ps), and reports whether any is non-zero.
// Only a decoder's read can fail.
func (lv *mbLevels) block(blk *[16]int32, c, x, y int, pred []uint8, ps, qp int) (bool, error) {
	if lv.cf == nil {
		err := lv.src.readBlock(blk)
		return *blk != [16]int32{}, err
	}
	src := planes(lv.cf)[c]
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			blk[j*4+i] = int32(src.At(x+i, y+j)) - int32(pred[j*ps+i])
		}
	}
	nz := transform.TQ(blk, qp)
	lv.sink.writeBlock(blk)
	return nz > 0, nil
}

func planes(f *h264.Frame) [3]*h264.Plane { return [3]*h264.Plane{f.Y, f.Cb, f.Cr} }

// reconMB reconstructs macroblock (mbx, mby) into recon: it walks the
// sixteen luma and 2×4 chroma blocks in coding order, obtains each block's
// levels from lv, adds TQ⁻¹ of them to the prediction, and records the
// deblocking state in bi. d is the inter decision, nil for an intra
// macroblock. Encoder and decoder both reconstruct here, which is what
// makes the decoder's picture the encoder's RF+1 buffer by construction.
func reconMB(lv *mbLevels, recon *h264.Frame, bi *deblock.BlockInfo, d *h264.MBDecision,
	mbx, mby int, predY *[256]uint8, predCb, predCr *[64]uint8, qp int) error {

	blk := &lv.blk
	preds := [3][]uint8{predY[:], predCb[:], predCr[:]}
	for c, dst := range planes(recon) {
		n := 4 // blocks a side: 16×16 luma, 8×8 chroma
		if c > 0 {
			n = 2
		}
		ps := n * 4
		for by := 0; by < n; by++ {
			for bx := 0; bx < n; bx++ {
				x, y := mbx*ps+bx*4, mby*ps+by*4
				pred := preds[c][by*4*ps+bx*4:]
				coded, err := lv.block(blk, c, x, y, pred, ps, qp)
				if err != nil {
					return err
				}
				transform.TQInv(blk, qp)
				for j := 0; j < 4; j++ {
					for i := 0; i < 4; i++ {
						dst.Set(x+i, y+j, transform.Clip255(int32(pred[j*ps+i])+blk[j*4+i]))
					}
				}
				if c == 0 { // deblocking strength is decided per luma block
					var mv h264.MV
					var ref uint8
					if d != nil {
						k := partForBlock(d.Mode, bx, by)
						mv, ref = d.MV[k], d.Ref[k]
					}
					bi.SetBlock(mbx*4+bx, mby*4+by, coded, mv, ref)
				}
			}
		}
	}
	bi.SetIntra(mbx, mby, d == nil)
	return nil
}
