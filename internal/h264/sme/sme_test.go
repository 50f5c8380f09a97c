package sme

import (
	"math"
	"math/rand"
	"testing"

	"feves/internal/h264"
	"feves/internal/h264/interp"
	"feves/internal/h264/me"
)

func randomFrame(w, h int, seed int64) *h264.Frame {
	f := h264.NewFrame(w, h)
	rng := rand.New(rand.NewSource(seed))
	data := make([]uint8, w*h*3/2)
	rng.Read(data)
	if err := f.LoadYUV(data); err != nil {
		panic(err)
	}
	return f
}

// smoothFrame builds a low-frequency luma so sub-pel refinement has real
// gradients to exploit.
func smoothFrame(w, h int, seed int64) *h264.Frame {
	f := h264.NewFrame(w, h)
	rng := rand.New(rand.NewSource(seed))
	// Pure-horizontal sinusoid: SAD is independent of vertical displacement,
	// so the exact sub-pel match is reachable from any integer ME optimum.
	a, c := 0.2+rng.Float64()*0.1, rng.Float64()*6
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 90*mathSin(a*float64(x)+c)
			f.Y.Set(x, y, uint8(v))
		}
	}
	f.ExtendBorders()
	return f
}

func mathSin(x float64) float64 {
	// small wrapper so the import list stays minimal in this test file
	return math.Sin(x)
}

func setup(cur, ref *h264.Frame, searchRange int) (*h264.MVField, *h264.MVField, []*interp.SubFrame) {
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	meF := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	me.SearchRows(cur, dpb, me.Config{SearchRange: searchRange}, meF, 0, cur.MBHeight())
	sf := interp.NewSubFrame(ref.W, ref.H)
	interp.Interpolate(ref.Y, sf)
	out := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	return meF, out, []*interp.SubFrame{sf}
}

func TestRefinementNeverWorseThanInteger(t *testing.T) {
	cur := randomFrame(48, 48, 1)
	ref := randomFrame(48, 48, 2)
	meF, out, sfs := setup(cur, ref, 4)
	RefineRows(cur, sfs, meF, out, 0, cur.MBHeight())
	for mby := 0; mby < cur.MBHeight(); mby++ {
		for mbx := 0; mbx < cur.MBWidth(); mbx++ {
			for part := 0; part < h264.TotalPartitions; part++ {
				_, ic := meF.Get(mbx, mby, part, 0)
				_, sc := out.Get(mbx, mby, part, 0)
				if sc > ic {
					t.Fatalf("MB(%d,%d) part %d: refined %d worse than integer %d",
						mbx, mby, part, sc, ic)
				}
			}
		}
	}
}

func TestRefinedVectorWithinQuarterWindow(t *testing.T) {
	cur := randomFrame(48, 48, 3)
	ref := randomFrame(48, 48, 4)
	meF, out, sfs := setup(cur, ref, 4)
	RefineRows(cur, sfs, meF, out, 0, cur.MBHeight())
	for mby := 0; mby < cur.MBHeight(); mby++ {
		for mbx := 0; mbx < cur.MBWidth(); mbx++ {
			for part := 0; part < h264.TotalPartitions; part++ {
				imv, _ := meF.Get(mbx, mby, part, 0)
				smv, _ := out.Get(mbx, mby, part, 0)
				q := imv.Scale4()
				dx, dy := int(smv.X-q.X), int(smv.Y-q.Y)
				if dx < -3 || dx > 3 || dy < -3 || dy > 3 {
					t.Fatalf("refinement moved %d,%d quarter-pels (max 3)", dx, dy)
				}
			}
		}
	}
}

func TestSubPelFindsHalfPelShift(t *testing.T) {
	// Build the current frame by sampling the reference's own half-pel
	// plane: refinement should then prefer a fractional vector and reach a
	// much lower cost than integer ME alone.
	ref := smoothFrame(64, 48, 5)
	sf := interp.NewSubFrame(ref.W, ref.H)
	interp.Interpolate(ref.Y, sf)
	cur := h264.NewFrame(64, 48)
	for y := 0; y < 48; y++ {
		for x := 0; x < 64; x++ {
			cur.Y.Set(x, y, sf.Planes[2].At(x, y)) // half-pel-x shifted content
		}
	}
	cur.ExtendBorders()

	meF, out, sfs := setup(cur, ref, 4)
	RefineRows(cur, sfs, meF, out, 0, cur.MBHeight())

	mbx, mby := 1, 1
	smv, sc := out.Get(mbx, mby, 0, 0)
	_, ic := meF.Get(mbx, mby, 0, 0)
	if sc >= ic {
		t.Fatalf("sub-pel cost %d did not improve on integer cost %d", sc, ic)
	}
	if smv.X&3 == 0 && smv.Y&3 == 0 {
		t.Fatalf("expected fractional vector, got %v", smv)
	}
	if sc != 0 {
		t.Fatalf("half-pel-shifted content should match exactly, SAD=%d", sc)
	}
}

func TestRowSlicedRefinementIsBitExact(t *testing.T) {
	cur := randomFrame(48, 64, 6)
	ref := randomFrame(48, 64, 7)
	meF, full, sfs := setup(cur, ref, 4)
	RefineRows(cur, sfs, meF, full, 0, 4)

	part := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	RefineRows(cur, sfs, meF, part, 3, 4)
	RefineRows(cur, sfs, meF, part, 0, 2)
	RefineRows(cur, sfs, meF, part, 2, 3)
	if !full.Equal(part) {
		t.Fatal("row-sliced SME is not bit-exact with full refinement")
	}
}

func TestUnusableRefsPassThrough(t *testing.T) {
	cur := randomFrame(32, 32, 8)
	ref := randomFrame(32, 32, 9)
	dpb := h264.NewDPB(2)
	dpb.Push(ref) // only 1 of 2 refs present
	meF := h264.NewMVField(2, 2, 2)
	me.SearchRows(cur, dpb, me.Config{SearchRange: 2}, meF, 0, 2)
	sf := interp.NewSubFrame(32, 32)
	interp.Interpolate(ref.Y, sf)
	out := h264.NewMVField(2, 2, 2)
	RefineRows(cur, []*interp.SubFrame{sf, nil}, meF, out, 0, 2)
	if _, c := out.Get(0, 0, 0, 1); c != math.MaxInt32 {
		t.Fatalf("missing ref should stay unusable, cost %d", c)
	}
	if _, c := out.Get(0, 0, 0, 0); c == math.MaxInt32 {
		t.Fatal("present ref should be refined")
	}
}

func TestSubSADIntegerPositionsMatchPlainSAD(t *testing.T) {
	cur := randomFrame(32, 32, 10)
	ref := randomFrame(32, 32, 11)
	sf := interp.NewSubFrame(32, 32)
	interp.Interpolate(ref.Y, sf)
	for _, mv := range []h264.MV{{X: 0, Y: 0}, {X: 4, Y: 8}, {X: -8, Y: 4}, {X: -12, Y: -4}} {
		got := SubSAD(cur.Y, sf, 16, 16, 16, 16, mv)
		want := me.SADRef(cur.Y, ref.Y, 16, 16, 16+int(mv.X)/4, 16+int(mv.Y)/4, 16, 16)
		if got != want {
			t.Fatalf("mv %v: SubSAD %d != SAD %d", mv, got, want)
		}
	}
}

func TestRefineRowsPanics(t *testing.T) {
	cur := randomFrame(32, 32, 12)
	meF := h264.NewMVField(2, 2, 1)
	out := h264.NewMVField(2, 2, 1)
	sfs := []*interp.SubFrame{nil}
	cases := []func(){
		func() { RefineRows(cur, sfs, meF, h264.NewMVField(2, 2, 2), 0, 2) },
		func() { RefineRows(cur, sfs, meF, out, 0, 3) },
		func() { RefineRows(cur, []*interp.SubFrame{}, meF, out, 0, 2) },
		func() { RefineRows(cur, sfs, h264.NewMVField(1, 2, 1), h264.NewMVField(1, 2, 1), 0, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRefineRowsMatchesScalarReference(t *testing.T) {
	// The cell-memoized SWAR kernel must be bit-exact with the retained
	// scalar kernel — same costs, same vectors, same tie-breaking.
	for seed := int64(0); seed < 3; seed++ {
		cur := randomFrame(80, 64, 60+seed)
		ref := randomFrame(80, 64, 70+seed)
		meF, out, sfs := setup(cur, ref, 6)
		refOut := h264.NewMVField(out.MBW, out.MBH, out.NumRF)
		RefineRows(cur, sfs, meF, out, 0, cur.MBHeight())
		RefineRowsRef(cur, sfs, meF, refOut, 0, cur.MBHeight())
		if !out.Equal(refOut) {
			t.Fatalf("seed %d: memoized refinement differs from scalar reference", seed)
		}
	}
}

func TestSubSADMatchesScalarReference(t *testing.T) {
	cur := randomFrame(64, 48, 80)
	ref := randomFrame(64, 48, 81)
	sf := interp.NewSubFrame(ref.W, ref.H)
	interp.Interpolate(ref.Y, sf)
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 300; i++ {
		w := []int{4, 8, 16}[rng.Intn(3)]
		h := []int{4, 8, 16}[rng.Intn(3)]
		x, y := rng.Intn(64-w), rng.Intn(48-h)
		mv := h264.MV{X: int16(rng.Intn(33) - 16), Y: int16(rng.Intn(33) - 16)}
		got := SubSAD(cur.Y, sf, x, y, w, h, mv)
		want := subSADRef(cur.Y, sf, x, y, w, h, mv)
		if got != want {
			t.Fatalf("SubSAD(%d,%d %dx%d mv %v) = %d, ref %d", x, y, w, h, mv, got, want)
		}
	}
}
