package interp

import (
	"math/rand"
	"testing"

	"feves/internal/h264"
)

func randomPlane(w, h int, seed int64) *h264.Plane {
	p := h264.NewPlane(w, h, h264.DefaultPad)
	rng := rand.New(rand.NewSource(seed))
	for y := 0; y < h; y++ {
		row := p.Row(y)
		for x := range row {
			row[x] = uint8(rng.Intn(256))
		}
	}
	p.ExtendBorder()
	return p
}

func TestIntegerPlaneEqualsReference(t *testing.T) {
	ref := randomPlane(32, 32, 1)
	sf := NewSubFrame(32, 32)
	Interpolate(ref, sf)
	if !sf.Planes[0].Equal(ref) {
		t.Fatal("plane (0,0) must equal the reference luma")
	}
}

func TestConstantImageInterpolatesToConstant(t *testing.T) {
	ref := h264.NewPlane(32, 32, h264.DefaultPad)
	for y := 0; y < 32; y++ {
		row := ref.Row(y)
		for x := range row {
			row[x] = 77
		}
	}
	ref.ExtendBorder()
	sf := NewSubFrame(32, 32)
	Interpolate(ref, sf)
	for pi, p := range sf.Planes {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				if got := p.At(x, y); got != 77 {
					t.Fatalf("plane %d at (%d,%d) = %d, want 77", pi, x, y, got)
				}
			}
		}
	}
}

func TestHalfPelMatchesDirectSixTap(t *testing.T) {
	ref := randomPlane(48, 32, 2)
	sf := NewSubFrame(48, 32)
	Interpolate(ref, sf)
	// Horizontal half-pel: plane (2,0).
	for y := 0; y < 32; y++ {
		for x := 0; x < 48; x++ {
			raw := int32(ref.At(x-2, y)) - 5*int32(ref.At(x-1, y)) + 20*int32(ref.At(x, y)) +
				20*int32(ref.At(x+1, y)) - 5*int32(ref.At(x+2, y)) + int32(ref.At(x+3, y))
			v := (raw + 16) >> 5
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			if got := sf.Planes[2].At(x, y); int32(got) != v {
				t.Fatalf("b(%d,%d) = %d, want %d", x, y, got, v)
			}
		}
	}
	// Vertical half-pel: plane (0,2).
	for y := 0; y < 32; y++ {
		for x := 0; x < 48; x++ {
			raw := int32(ref.At(x, y-2)) - 5*int32(ref.At(x, y-1)) + 20*int32(ref.At(x, y)) +
				20*int32(ref.At(x, y+1)) - 5*int32(ref.At(x, y+2)) + int32(ref.At(x, y+3))
			v := (raw + 16) >> 5
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			if got := sf.Planes[8].At(x, y); int32(got) != v {
				t.Fatalf("h(%d,%d) = %d, want %d", x, y, got, v)
			}
		}
	}
}

func TestQuarterPelIsAverage(t *testing.T) {
	ref := randomPlane(32, 32, 3)
	sf := NewSubFrame(32, 32)
	Interpolate(ref, sf)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			g := int32(sf.Planes[0].At(x, y))
			b := int32(sf.Planes[2].At(x, y))
			h := int32(sf.Planes[8].At(x, y))
			j := int32(sf.Planes[10].At(x, y))
			if got := sf.Planes[1].At(x, y); int32(got) != (g+b+1)>>1 {
				t.Fatalf("a(%d,%d) not the average of G and b", x, y)
			}
			if got := sf.Planes[4].At(x, y); int32(got) != (g+h+1)>>1 {
				t.Fatalf("d(%d,%d) not the average of G and h", x, y)
			}
			if got := sf.Planes[5].At(x, y); int32(got) != (b+h+1)>>1 {
				t.Fatalf("e(%d,%d) not the average of b and h", x, y)
			}
			if got := sf.Planes[6].At(x, y); int32(got) != (b+j+1)>>1 {
				t.Fatalf("f(%d,%d) not the average of b and j", x, y)
			}
		}
	}
}

func TestRowSlicedInterpolationIsBitExact(t *testing.T) {
	// The collaborative-encoding correctness property: any row partitioning
	// produces exactly the full-frame result.
	ref := randomPlane(64, 64, 4)
	full := NewSubFrame(64, 64)
	Interpolate(ref, full)

	for _, splits := range [][]int{{0, 1, 4}, {0, 2, 3, 4}, {0, 4}, {0, 1, 2, 3, 4}} {
		part := NewSubFrame(64, 64)
		for i := 0; i+1 < len(splits); i++ {
			InterpolateRows(ref, part, splits[i], splits[i+1])
		}
		part.ExtendBorders()
		if !part.Equal(full) {
			t.Fatalf("split %v is not bit-exact with full interpolation", splits)
		}
	}
}

func TestSampleAddressing(t *testing.T) {
	ref := randomPlane(32, 32, 5)
	sf := NewSubFrame(32, 32)
	Interpolate(ref, sf)
	// Integer quarter-pel coordinates hit plane 0.
	if sf.Sample(4*7, 4*9) != ref.At(7, 9) {
		t.Fatal("Sample at integer position != reference")
	}
	// (4x+2, 4y) hits the horizontal half-pel plane.
	if sf.Sample(4*7+2, 4*9) != sf.Planes[2].At(7, 9) {
		t.Fatal("Sample at half-pel x wrong plane")
	}
	// Negative coordinates floor correctly into the padded border.
	if sf.Sample(-4, -8) != sf.Planes[0].At(-1, -2) {
		t.Fatal("negative quarter-pel coordinates do not floor")
	}
	if sf.Sample(-3, 0) != sf.Planes[1].At(-1, 0) {
		t.Fatal("negative fractional coordinate maps to wrong plane")
	}
}

func TestEqualRows(t *testing.T) {
	ref := randomPlane(32, 48, 6)
	a := NewSubFrame(32, 48)
	b := NewSubFrame(32, 48)
	Interpolate(ref, a)
	Interpolate(ref, b)
	if !a.EqualRows(b, 0, 3) || !a.Equal(b) {
		t.Fatal("identical interpolations must compare equal")
	}
	b.Planes[10].Set(5, 30, b.Planes[10].At(5, 30)+1) // row 30 is MB row 1
	if a.EqualRows(b, 1, 2) {
		t.Fatal("mutation in MB row 1 not detected")
	}
	if !a.EqualRows(b, 0, 1) || !a.EqualRows(b, 2, 3) {
		t.Fatal("unrelated rows reported as different")
	}
}

func TestInterpolateRowsPanicsOnBadRange(t *testing.T) {
	ref := randomPlane(32, 32, 7)
	sf := NewSubFrame(32, 32)
	for _, r := range [][2]int{{-1, 1}, {1, 1}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v did not panic", r)
				}
			}()
			InterpolateRows(ref, sf, r[0], r[1])
		}()
	}
}

func TestInterpolatePanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	Interpolate(randomPlane(32, 32, 8), NewSubFrame(16, 16))
}

func TestInterpolatePanicsOnPartialMacroblockWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a width that is not a macroblock multiple")
		}
	}()
	Interpolate(randomPlane(24, 32, 9), NewSubFrame(24, 32))
}

func TestInterpolateRowsMatchesReference(t *testing.T) {
	// The flat-scratch kernel must be bit-exact with the retained
	// accessor-per-sample oracle: on whole frames, on row slices that start
	// and end mid-frame, and on a plane one macroblock wide, where the last
	// eight-sample step reads its x+1 words at the right edge.
	for _, c := range []struct{ w, h, rowLo, rowHi int }{
		{80, 64, 0, 4},
		{80, 64, 1, 3},
		{80, 64, 2, 3},
		{16, 48, 0, 3},
		{16, 48, 1, 2},
	} {
		ref := randomPlane(c.w, c.h, 90)
		fast := NewSubFrame(c.w, c.h)
		slow := NewSubFrame(c.w, c.h)
		InterpolateRows(ref, fast, c.rowLo, c.rowHi)
		InterpolateRowsRef(ref, slow, c.rowLo, c.rowHi)
		if !fast.EqualRows(slow, c.rowLo, c.rowHi) {
			t.Fatalf("%dx%d rows [%d,%d): interpolation differs from reference", c.w, c.h, c.rowLo, c.rowHi)
		}
	}
}
