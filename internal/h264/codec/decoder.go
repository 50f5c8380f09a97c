package codec

import (
	"errors"
	"fmt"
	"io"

	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/mc"
)

// ErrChecksum reports a per-frame CRC mismatch: the decoded picture does
// not match what the encoder reconstructed.
var ErrChecksum = errors.New("codec: frame checksum mismatch")

// verifyChecksum consumes and checks the frame trailer when enabled. For
// frames with concealed slices the trailer is consumed but not compared —
// the reconstruction legitimately differs from the encoder's.
func (d *Decoder) verifyChecksum(recon *h264.Frame) error {
	if !d.cfg.Checksum {
		return nil
	}
	want, err := d.r.ReadBits(32)
	if err != nil {
		return err
	}
	if d.frameConcealed > 0 {
		return nil
	}
	if got := reconCRC(recon); got != want {
		return fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, want)
	}
	return nil
}

// beginFrameEntropy mirrors the encoder's frame layout: with the
// arithmetic backend one independent residual chunk per slice precedes
// the header region; each is consumed here and wrapped as that slice's
// block source.
func (d *Decoder) beginFrameEntropy(slices int) ([]blockSource, error) {
	srcs := make([]blockSource, slices)
	if d.cfg.Entropy != EntropyArith {
		for i := range srcs {
			srcs[i] = vlcSource{d.r}
		}
		return srcs, nil
	}
	for i := range srcs {
		n, err := d.r.ReadUE()
		if err != nil {
			return nil, err
		}
		d.r.AlignByte()
		chunk, err := d.r.ReadBytes(int(n))
		if err != nil {
			return nil, err
		}
		src := arithSource{
			d:    entropy.NewArithDecoder(chunk),
			rc:   entropy.NewResidualContexts(),
			dead: new(bool),
		}
		if d.Conceal {
			src.conceal = &d.frameConcealed
		}
		srcs[i] = src
	}
	return srcs, nil
}

// Decoder reconstructs the frames of a bitstream produced by Encoder. It is
// the end-to-end verification tool of the reproduction: for every frame the
// decoder output must be bit-exact with the encoder's reconstructed
// reference frame, regardless of how the encoding was distributed across
// devices.
type Decoder struct {
	cfg  Config
	r    *entropy.BitReader
	refs *refChains // the encoder's reference state, moved by the same code
	poc  int
	// stats, when non-nil, collects per-frame syntax statistics for
	// Inspect.
	stats *FrameInfo
	// Conceal enables error concealment for sliced arithmetic streams: a
	// corrupt slice chunk degrades only its own rows (residuals are
	// zeroed, prediction still applies) instead of failing the frame.
	// Headers must still parse; checksum trailers are skipped for
	// concealed frames (the pixels legitimately differ).
	Conceal bool
	// concealed counts slices concealed since decoding began;
	// frameConcealed counts within the current frame.
	concealed      int
	frameConcealed int
}

// ConcealedSlices returns how many corrupt slices were concealed so far
// (always 0 unless Conceal is set).
func (d *Decoder) ConcealedSlices() int { return d.concealed }

// NewDecoder parses the sequence header and prepares a decoder.
func NewDecoder(stream []byte) (*Decoder, error) {
	r := entropy.NewBitReader(stream)
	cfg, err := readSequenceHeader(r)
	if err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, r: r, refs: newRefChains(cfg.chains(), cfg.NumRF)}, nil
}

// Config returns the sequence parameters parsed from the header.
func (d *Decoder) Config() Config { return d.cfg }

// DecodeFrame decodes the next frame, returning io.EOF at stream end.
func (d *Decoder) DecodeFrame() (*h264.Frame, error) {
	if d.r.Remaining() < 8 {
		return nil, io.EOF
	}
	ft, err := d.r.ReadUE()
	if err != nil {
		return nil, err
	}
	d.frameConcealed = 0
	defer func() { d.concealed += d.frameConcealed }()
	switch ft {
	case 0:
		return d.decodeIntra()
	case 1:
		return d.decodeInter()
	default:
		return nil, fmt.Errorf("%w: frame type %d", ErrBadStream, ft)
	}
}

func (d *Decoder) decodeIntra() (*h264.Frame, error) {
	recon := h264.NewFrame(d.cfg.Width, d.cfg.Height)
	bi := deblock.NewBlockInfo(d.cfg.Width, d.cfg.Height)
	mbw, mbh := recon.MBWidth(), recon.MBHeight()
	qp := d.cfg.IQP
	starts := sliceStarts(mbh, d.cfg.sliceCount())
	srcs, err := d.beginFrameEntropy(len(starts))
	if err != nil {
		return nil, err
	}
	for mby := 0; mby < mbh; mby++ {
		topY := sliceTopRow(starts, mby) * h264.MBSize
		lv := mbLevels{src: srcs[sliceIndex(starts, mby)]}
		for mbx := 0; mbx < mbw; mbx++ {
			if err := d.decodeIntraMB(&lv, recon, bi, mbx, mby, qp, topY); err != nil {
				return nil, err
			}
		}
	}
	d.r.AlignByte()
	deblock.FilterFrame(recon, bi, qp)
	if err := d.verifyChecksum(recon); err != nil {
		return nil, err
	}
	recon.Poc = d.poc
	recon.IsIntra = true
	d.poc++
	d.refs.idr(recon, nil) // the frames are the caller's: nothing is recycled
	return recon, nil
}

func (d *Decoder) decodeIntraMB(lv *mbLevels, recon *h264.Frame, bi *deblock.BlockInfo, mbx, mby, qp, topY int) error {
	x0, y0 := mbx*h264.MBSize, mby*h264.MBSize
	modeRaw, err := d.r.ReadUE()
	if err != nil {
		return err
	}
	if modeRaw >= numIntraModes {
		return fmt.Errorf("%w: intra mode %d", ErrBadStream, modeRaw)
	}
	if (modeRaw == intraVertical && y0 == topY) || (modeRaw == intraHorizontal && x0 == 0) {
		return fmt.Errorf("%w: intra mode %d without neighbours", ErrBadStream, modeRaw)
	}
	var predY [256]uint8
	var predCb, predCr [64]uint8
	intraPred(recon, x0, y0, int(modeRaw), topY, &predY, &predCb, &predCr)
	return reconMB(lv, recon, bi, nil, mbx, mby, &predY, &predCb, &predCr, qp)
}

func (d *Decoder) decodeInter() (*h264.Frame, error) {
	chain := d.refs.next()
	if d.refs.dpb[chain].Len() == 0 {
		return nil, fmt.Errorf("%w: inter frame before intra frame", ErrBadStream)
	}
	// The encoder's INT step: interpolate the chain's most recent reference.
	newSF := interp.NewSubFrame(d.cfg.Width, d.cfg.Height)
	interp.Interpolate(d.refs.dpb[chain].Ref(0).Y, newSF)
	d.refs.installSF(chain, newSF)
	refs, sfs := d.refs.lists(chain, nil)

	qpDelta, err := d.r.ReadSE()
	if err != nil {
		return nil, err
	}
	qp := d.cfg.PQP + int(qpDelta)
	if qp < 0 || qp > 51 {
		return nil, fmt.Errorf("%w: frame QP %d", ErrBadStream, qp)
	}
	if d.stats != nil {
		d.stats.QP = qp
	}
	recon := h264.NewFrame(d.cfg.Width, d.cfg.Height)
	bi := deblock.NewBlockInfo(d.cfg.Width, d.cfg.Height)
	mbw, mbh := recon.MBWidth(), recon.MBHeight()
	starts := sliceStarts(mbh, d.cfg.sliceCount())
	srcs, err := d.beginFrameEntropy(len(starts))
	if err != nil {
		return nil, err
	}
	repMV := make([]h264.MV, mbw*mbh)
	// The longest quarter-pel vector an encoder can signal: the integer
	// search range, then SME's half- and quarter-pel steps. MC reads the
	// reference padding unchecked, and Config.Validate sized the padding for
	// exactly this reach.
	mvMax := int32(4*d.cfg.SearchRange + 3)

	for mby := 0; mby < mbh; mby++ {
		topRow := sliceTopRow(starts, mby)
		lv := mbLevels{src: srcs[sliceIndex(starts, mby)]}
		for mbx := 0; mbx < mbw; mbx++ {
			modeRaw, err := d.r.ReadUE()
			if err != nil {
				return nil, err
			}
			if modeRaw >= h264.NumPartModes {
				return nil, fmt.Errorf("%w: partition mode %d", ErrBadStream, modeRaw)
			}
			dec := h264.MBDecision{Mode: h264.PartMode(modeRaw)}
			if d.stats != nil {
				d.stats.ModeCount[dec.Mode]++
			}
			pred := mc.MedianPredictorSlice(repMV, mbw, mbx, mby, topRow)
			for k := 0; k < dec.Mode.Count(); k++ {
				ref, err := d.r.ReadUE()
				if err != nil {
					return nil, err
				}
				if int(ref) >= len(refs) {
					return nil, fmt.Errorf("%w: reference %d of %d", ErrBadStream, ref, len(refs))
				}
				mvdx, err := d.r.ReadSE()
				if err != nil {
					return nil, err
				}
				mvdy, err := d.r.ReadSE()
				if err != nil {
					return nil, err
				}
				// Widen before adding: a hostile difference must fail the
				// range check, not wrap int16 back into range.
				mvx, mvy := int32(pred.X)+mvdx, int32(pred.Y)+mvdy
				if mvx < -mvMax || mvx > mvMax || mvy < -mvMax || mvy > mvMax {
					return nil, fmt.Errorf("%w: motion vector (%d,%d) beyond ±%d", ErrBadStream, mvx, mvy, mvMax)
				}
				dec.Ref[k] = uint8(ref)
				dec.MV[k] = h264.MV{X: int16(mvx), Y: int16(mvy)}
			}
			repMV[mby*mbw+mbx] = dec.MV[0]

			var predY [256]uint8
			var predCb, predCr [64]uint8
			mc.PredictMB(&dec, sfs, refs, mbx, mby, &predY, &predCb, &predCr)
			if err := reconMB(&lv, recon, bi, &dec, mbx, mby, &predY, &predCb, &predCr, qp); err != nil {
				return nil, err
			}
		}
	}
	d.r.AlignByte()
	deblock.FilterFrame(recon, bi, qp)
	if err := d.verifyChecksum(recon); err != nil {
		return nil, err
	}
	recon.Poc = d.poc
	d.poc++
	d.refs.push(chain, recon)
	return recon, nil
}
