// Package interp implements the INT inter-loop module of the FEVES
// reproduction: half-pel interpolation of reference frames with the 6-tap
// H.264/AVC filter (1, −5, 20, 20, −5, 1)/32 and quarter-pel interpolation
// by bilinear averaging, producing the Sub-pixel interpolated Frame (SF)
// structure — 16 sub-position planes per reference frame, "as large as 16
// RFs" in the paper's words.
//
// The kernel works on flat row slices with stride arithmetic: the unrounded
// 6-tap intermediates are kept in pooled scratch buffers and every inner
// loop walks contiguous memory, so the compiler can keep the filter taps in
// registers. The last pass writes the 16 planes eight samples a step, the
// quarter-pel ones as byte-parallel averages of two words.
//
// Interpolation is row-sliceable: InterpolateRows fills only the requested
// macroblock rows and is bit-exact regardless of how rows are distributed
// across devices, which is what makes the module safe to load-balance.
package interp

import (
	"encoding/binary"
	"fmt"
	"sync"

	"feves/internal/h264"
)

// SubFrame holds the 16 quarter-pel sub-position planes of one interpolated
// reference frame. Plane index is fy*4+fx for fractional offsets fx, fy in
// quarter-pel units; plane 0 is the integer-position plane (a copy of the
// reference frame's luma).
type SubFrame struct {
	W, H   int
	Planes [16]*h264.Plane
}

// NewSubFrame allocates the 16 sub-position planes for a w×h luma plane.
func NewSubFrame(w, h int) *SubFrame {
	sf := &SubFrame{W: w, H: h}
	for i := range sf.Planes {
		sf.Planes[i] = h264.NewPlane(w, h, h264.DefaultPad)
	}
	return sf
}

// Sample returns the luma sample at quarter-pel position (x4, y4), where
// integer position (x, y) corresponds to (4x, 4y). Positions inside the
// padded border are valid.
func (sf *SubFrame) Sample(x4, y4 int) uint8 {
	fx, fy := x4&3, y4&3
	return sf.Planes[fy*4+fx].At(x4>>2, y4>>2)
}

// Equal reports whether two sub-frames agree on all 16 picture areas.
func (sf *SubFrame) Equal(o *SubFrame) bool {
	if sf.W != o.W || sf.H != o.H {
		return false
	}
	for i := range sf.Planes {
		if !sf.Planes[i].Equal(o.Planes[i]) {
			return false
		}
	}
	return true
}

// EqualRows reports whether two sub-frames agree on macroblock rows
// [rowLo, rowHi) of all 16 planes.
func (sf *SubFrame) EqualRows(o *SubFrame, rowLo, rowHi int) bool {
	if sf.W != o.W || sf.H != o.H {
		return false
	}
	for p := range sf.Planes {
		for y := rowLo * h264.MBSize; y < rowHi*h264.MBSize; y++ {
			a, b := sf.Planes[p].Row(y), o.Planes[p].Row(y)
			for x := range a {
				if a[x] != b[x] {
					return false
				}
			}
		}
	}
	return true
}

// ExtendBorders replicates edges of all 16 planes. Call once after every
// picture row has been interpolated (the τ1 host-side assembly step).
func (sf *SubFrame) ExtendBorders() {
	for _, p := range sf.Planes {
		p.ExtendBorder()
	}
}

// sixTap applies the H.264 half-pel filter to six samples without rounding.
func sixTap(a, b, c, d, e, f int32) int32 {
	return a - 5*b + 20*c + 20*d - 5*e + f
}

func clip(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// scratch holds the unrounded 6-tap intermediates for one InterpolateRows
// call; pooled so the steady-state frame loop performs no allocations.
type scratch struct {
	b, h, j    []int32
	bp, hp, jp []uint8 // rounded half-pel rows, each value used by 2–4 sub-positions
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// Interpolate fills the whole sub-frame from the reference luma plane and
// extends the borders. Equivalent to InterpolateRows over all rows followed
// by ExtendBorders.
func Interpolate(ref *h264.Plane, sf *SubFrame) {
	InterpolateRows(ref, sf, 0, ref.H/h264.MBSize)
	sf.ExtendBorders()
}

// InterpolateRows interpolates macroblock rows [rowLo, rowHi) of all 16
// sub-position planes from the (border-extended) reference luma plane.
// The computation only reads ref, so concurrent calls on disjoint row
// ranges are safe and their union is bit-exact with a single full-frame
// interpolation.
func InterpolateRows(ref *h264.Plane, sf *SubFrame, rowLo, rowHi int) {
	if ref.W != sf.W || ref.H != sf.H {
		panic(fmt.Sprintf("interp: ref %dx%d vs SF %dx%d", ref.W, ref.H, sf.W, sf.H))
	}
	if ref.W%h264.MBSize != 0 {
		panic(fmt.Sprintf("interp: width %d is not a multiple of %d", ref.W, h264.MBSize))
	}
	yLo, yHi := rowLo*h264.MBSize, rowHi*h264.MBSize
	if yLo < 0 || yHi > ref.H || yLo >= yHi {
		panic(fmt.Sprintf("interp: bad row range [%d,%d)", rowLo, rowHi))
	}
	w := ref.W
	pad := ref.Pad

	// Intermediate half-pel values are kept unrounded (int32) so that the
	// centre position j is derived from unrounded horizontal values exactly
	// as the standard specifies. We compute a halo of rows around the target
	// range because the vertical filter and the quarter-pel averages of the
	// last row reach below it.
	const halo = 3
	iLo, iHi := yLo-halo, yHi+halo
	bRows := iHi - iLo       // horizontal 6-tap rows
	hRows := yHi - (yLo - 1) // vertical 6-tap + centre rows
	bw := w + 1              // b covers x = -1..w-1, stored at x+1
	hw := w + 1              // h covers x = 0..w

	s := scratchPool.Get().(*scratch)
	s.b = grow(s.b, bRows*bw)
	s.h = grow(s.h, hRows*hw)
	s.j = grow(s.j, hRows*w)

	// b[y][x+1]: horizontal 6-tap at (x+1/2, y), unrounded.
	for i := 0; i < bRows; i++ {
		rp := ref.RowPadded(iLo + i)
		bRow := s.b[i*bw : (i+1)*bw]
		for x := 0; x < bw; x++ {
			o := pad + x - 1 // sample x-1 of the covered range
			bRow[x] = sixTap(
				int32(rp[o-2]), int32(rp[o-1]), int32(rp[o]),
				int32(rp[o+1]), int32(rp[o+2]), int32(rp[o+3]))
		}
	}

	// h[y][x]: vertical 6-tap at (x, y+1/2), unrounded, for y in
	// [yLo-1, yHi) and x in [0, w] (x = w needed by k and r).
	for i := 0; i < hRows; i++ {
		y := yLo - 1 + i
		r0, r1, r2 := ref.RowPadded(y-2), ref.RowPadded(y-1), ref.RowPadded(y)
		r3, r4, r5 := ref.RowPadded(y+1), ref.RowPadded(y+2), ref.RowPadded(y+3)
		hRow := s.h[i*hw : (i+1)*hw]
		for x := 0; x < hw; x++ {
			o := pad + x
			hRow[x] = sixTap(
				int32(r0[o]), int32(r1[o]), int32(r2[o]),
				int32(r3[o]), int32(r4[o]), int32(r5[o]))
		}
	}

	// j[y][x]: centre half-pel at (x+1/2, y+1/2) = vertical 6-tap over
	// unrounded horizontal values, for y in [yLo-1, yHi).
	for i := 0; i < hRows; i++ {
		iy := (yLo - 1 + i) - iLo // b-row index of this output row
		b0 := s.b[(iy-2)*bw : (iy-1)*bw]
		b1 := s.b[(iy-1)*bw : iy*bw]
		b2 := s.b[iy*bw : (iy+1)*bw]
		b3 := s.b[(iy+1)*bw : (iy+2)*bw]
		b4 := s.b[(iy+2)*bw : (iy+3)*bw]
		b5 := s.b[(iy+3)*bw : (iy+4)*bw]
		jRow := s.j[i*w : (i+1)*w]
		for x := 0; x < w; x++ {
			jRow[x] = sixTap(b0[x+1], b1[x+1], b2[x+1], b3[x+1], b4[x+1], b5[x+1])
		}
	}

	// Rounded half-pel rows: each b value is reused as next row's s, each h
	// value as the previous column's m, so rounding once here halves the
	// clip work and leaves the final loop as straight byte averaging.
	n := yHi - yLo
	s.bp = growU8(s.bp, (n+1)*w)
	s.hp = growU8(s.hp, n*hw)
	s.jp = growU8(s.jp, n*w)
	for i := 0; i <= n; i++ {
		bRow := s.b[(yLo+i-iLo)*bw:]
		bpRow := s.bp[i*w : (i+1)*w]
		for x := 0; x < w; x++ {
			bpRow[x] = clip((bRow[x+1] + 16) >> 5)
		}
	}
	for i := 0; i < n; i++ {
		hRow := s.h[(i+1)*hw:] // h rows start at yLo-1
		hpRow := s.hp[i*hw : (i+1)*hw]
		for x := 0; x < hw; x++ {
			hpRow[x] = clip((hRow[x] + 16) >> 5)
		}
		jRow := s.j[(i+1)*w:]
		jpRow := s.jp[i*w : (i+1)*w]
		for x := 0; x < w; x++ {
			jpRow[x] = clip((jRow[x] + 512) >> 10)
		}
	}

	// Eight samples a step: the four full- and half-pel planes are word
	// copies, the twelve quarter-pel planes byte-parallel averages. Every
	// row read at x+1 has a sample past w (ref's border, hp's column w).
	le := binary.LittleEndian
	var out [16][]uint8
	for y := yLo; y < yHi; y++ {
		for p := range out {
			out[p] = sf.Planes[p].Row(y)
		}
		i := y - yLo
		rp := ref.RowPadded(y)[pad:]
		rpd := ref.RowPadded(y + 1)[pad:]
		bpRow := s.bp[i*w : (i+1)*w]
		bpDown := s.bp[(i+1)*w : (i+2)*w]
		hpRow := s.hp[i*hw : (i+1)*hw]
		jpRow := s.jp[i*w : (i+1)*w]
		for x := 0; x < w; x += 8 {
			G := le.Uint64(rp[x:])
			Gr := le.Uint64(rp[x+1:])   // integer samples to the right
			Gd := le.Uint64(rpd[x:])    // integer samples below
			b := le.Uint64(bpRow[x:])   // (1/2, 0)
			h := le.Uint64(hpRow[x:])   // (0, 1/2)
			j := le.Uint64(jpRow[x:])   // (1/2, 1/2)
			m := le.Uint64(hpRow[x+1:]) // h one integer column right
			sv := le.Uint64(bpDown[x:]) // b one integer row down

			le.PutUint64(out[0][x:], G)            // (0,0)
			le.PutUint64(out[1][x:], avg8(G, b))   // a (1,0)
			le.PutUint64(out[2][x:], b)            // b (2,0)
			le.PutUint64(out[3][x:], avg8(b, Gr))  // c (3,0)
			le.PutUint64(out[4][x:], avg8(G, h))   // d (0,1)
			le.PutUint64(out[5][x:], avg8(b, h))   // e (1,1)
			le.PutUint64(out[6][x:], avg8(b, j))   // f (2,1)
			le.PutUint64(out[7][x:], avg8(b, m))   // g (3,1)
			le.PutUint64(out[8][x:], h)            // h (0,2)
			le.PutUint64(out[9][x:], avg8(h, j))   // i (1,2)
			le.PutUint64(out[10][x:], j)           // j (2,2)
			le.PutUint64(out[11][x:], avg8(j, m))  // k (3,2)
			le.PutUint64(out[12][x:], avg8(h, Gd)) // n (0,3)
			le.PutUint64(out[13][x:], avg8(h, sv)) // p (1,3)
			le.PutUint64(out[14][x:], avg8(j, sv)) // q (2,3)
			le.PutUint64(out[15][x:], avg8(m, sv)) // r (3,3)
		}
	}

	scratchPool.Put(s)
}

// avg8 returns the eight rounded-up byte averages (a+b+1)>>1 of two words.
// a+b = 2(a&b) + (a^b) and a|b = (a&b) + (a^b), so the rounded-up half is
// a|b less the rounded-down half of a^b; the mask keeps a byte's shift from
// taking in its neighbour's low bit.
func avg8(a, b uint64) uint64 {
	return (a | b) - ((a^b)>>1)&0x7F7F7F7F7F7F7F7F
}
