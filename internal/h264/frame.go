package h264

import "fmt"

// MBSize is the luma macroblock dimension defined by H.264/AVC.
const MBSize = 16

// DefaultPad is the reference-plane padding used throughout the encoder. It
// must cover the largest supported search range plus the interpolation
// filter support (3 samples on each side for the 6-tap filter).
const DefaultPad = 160

// Frame is a YUV 4:2:0 picture. Luma is W×H; both chroma planes are
// (W/2)×(H/2). W and H must be multiples of MBSize.
type Frame struct {
	W, H    int
	Y       *Plane
	Cb, Cr  *Plane
	Poc     int // picture order count (frame number in display order)
	IsIntra bool
}

// NewFrame allocates a zeroed frame. Width and height must be positive
// multiples of MBSize.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 || w%MBSize != 0 || h%MBSize != 0 {
		panic(fmt.Sprintf("h264: frame size %dx%d not a multiple of %d", w, h, MBSize))
	}
	return &Frame{
		W:  w,
		H:  h,
		Y:  NewPlane(w, h, DefaultPad),
		Cb: NewPlane(w/2, h/2, DefaultPad/2),
		Cr: NewPlane(w/2, h/2, DefaultPad/2),
	}
}

// MBWidth returns the number of macroblock columns.
func (f *Frame) MBWidth() int { return f.W / MBSize }

// MBHeight returns the number of macroblock rows (N in the paper's
// load-balancing formulation).
func (f *Frame) MBHeight() int { return f.H / MBSize }

// LoadYUV fills the frame from packed planar I420 data
// (Y plane, then Cb, then Cr) and extends all borders.
func (f *Frame) LoadYUV(data []uint8) error {
	ySz := f.W * f.H
	cSz := ySz / 4
	if len(data) != ySz+2*cSz {
		return fmt.Errorf("h264: I420 frame needs %d bytes, got %d", ySz+2*cSz, len(data))
	}
	f.Y.LoadFrom(data[:ySz])
	f.Cb.LoadFrom(data[ySz : ySz+cSz])
	f.Cr.LoadFrom(data[ySz+cSz:])
	return nil
}

// PackedYUV returns the frame as packed planar I420 data.
func (f *Frame) PackedYUV() []uint8 {
	out := make([]uint8, 0, f.W*f.H*3/2)
	out = append(out, f.Y.Packed()...)
	out = append(out, f.Cb.Packed()...)
	out = append(out, f.Cr.Packed()...)
	return out
}

// ExtendBorders re-extends the borders of all three planes.
func (f *Frame) ExtendBorders() {
	f.Y.ExtendBorder()
	f.Cb.ExtendBorder()
	f.Cr.ExtendBorder()
}

// Equal reports whether two frames have bit-identical picture areas.
func (f *Frame) Equal(g *Frame) bool {
	return f.W == g.W && f.H == g.H &&
		f.Y.Equal(g.Y) && f.Cb.Equal(g.Cb) && f.Cr.Equal(g.Cr)
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	return &Frame{
		W: f.W, H: f.H,
		Y: f.Y.Clone(), Cb: f.Cb.Clone(), Cr: f.Cr.Clone(),
		Poc: f.Poc, IsIntra: f.IsIntra,
	}
}

// DPB is the decoded-picture buffer: an ordered list of reconstructed
// reference frames, most recent first (index 0 is the frame encoded
// immediately before the current one). Its capacity bounds the number of
// reference frames used by motion estimation.
type DPB struct {
	cap    int
	frames []*Frame
}

// NewDPB creates a decoded-picture buffer holding at most capacity frames.
func NewDPB(capacity int) *DPB {
	if capacity < 1 {
		panic("h264: DPB capacity must be >= 1")
	}
	return &DPB{cap: capacity, frames: make([]*Frame, 0, capacity)}
}

// Cap returns the configured capacity (the encoder's RF parameter).
func (d *DPB) Cap() int { return d.cap }

// Len returns the number of reference frames currently available. During
// the first frames of a sequence this is smaller than Cap — the ramp-up
// behaviour discussed with Fig. 7(b) of the paper.
func (d *DPB) Len() int { return len(d.frames) }

// Ref returns reference frame i (0 = most recent).
func (d *DPB) Ref(i int) *Frame { return d.frames[i] }

// Push inserts a newly reconstructed frame as the most recent reference,
// shifting the others one place back, and returns the oldest when the buffer
// was full: the frame no reference list reaches any more (nil otherwise).
func (d *DPB) Push(f *Frame) (evicted *Frame) {
	if len(d.frames) == d.cap {
		evicted = d.frames[d.cap-1]
	} else {
		d.frames = d.frames[:len(d.frames)+1]
	}
	copy(d.frames[1:], d.frames)
	d.frames[0] = f
	return evicted
}

// Clear removes all reference frames.
func (d *DPB) Clear() {
	clear(d.frames)
	d.frames = d.frames[:0]
}
