package me

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"feves/internal/h264"
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

// shiftedFrame returns a copy of f whose luma is translated by (dx, dy):
// shifted(x, y) = f(x-dx, y-dy), reading into the padded border.
func shiftedFrame(f *h264.Frame, dx, dy int) *h264.Frame {
	g := h264.NewFrame(f.W, f.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			g.Y.Set(x, y, f.Y.At(x-dx, y-dy))
		}
	}
	g.Cb.CopyFrom(f.Cb)
	g.Cr.CopyFrom(f.Cr)
	g.ExtendBorders()
	return g
}

func TestFindsExactTranslation(t *testing.T) {
	ref := randomFrame(64, 48, 1)
	for _, sh := range [][2]int{{0, 0}, {3, -2}, {-5, 5}, {7, 7}} {
		cur := shiftedFrame(ref, sh[0], sh[1])
		dpb := h264.NewDPB(1)
		dpb.Push(ref)
		field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
		SearchRows(cur, dpb, Config{SearchRange: 8}, field, 0, cur.MBHeight())
		// Interior macroblocks (away from the replicated border) must find
		// the exact translation with SAD 0 on every partition.
		mbx, mby := 1, 1
		for part := 0; part < h264.TotalPartitions; part++ {
			mv, cost := field.Get(mbx, mby, part, 0)
			if cost != 0 {
				t.Fatalf("shift %v part %d: SAD=%d, want 0", sh, part, cost)
			}
			// The MV points from the current block to its match in the
			// reference, so a content shift of (dx,dy) yields MV (-dx,-dy).
			if int(mv.X) != -sh[0] || int(mv.Y) != -sh[1] {
				t.Fatalf("shift %v part %d: MV=%v", sh, part, mv)
			}
		}
	}
}

func TestSADNeverWorseThanZeroMV(t *testing.T) {
	cur := randomFrame(64, 48, 2)
	ref := randomFrame(64, 48, 3)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	SearchRows(cur, dpb, Config{SearchRange: 6}, field, 0, cur.MBHeight())
	for mby := 0; mby < cur.MBHeight(); mby++ {
		for mbx := 0; mbx < cur.MBWidth(); mbx++ {
			for _, m := range h264.AllModes {
				w, h := m.Size()
				for k := 0; k < m.Count(); k++ {
					ox, oy := m.Offset(k)
					x, y := mbx*16+ox, mby*16+oy
					zero := SADRef(cur.Y, ref.Y, x, y, x, y, w, h)
					_, cost := field.Get(mbx, mby, m.Base()+k, 0)
					if cost > zero {
						t.Fatalf("MB(%d,%d) %v/%d: best %d worse than zero-MV %d",
							mbx, mby, m, k, cost, zero)
					}
				}
			}
		}
	}
}

func TestAgreesWithBruteForceOracle(t *testing.T) {
	cur := randomFrame(32, 32, 4)
	ref := randomFrame(32, 32, 5)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	const r = 4
	field := h264.NewMVField(2, 2, 1)
	SearchRows(cur, dpb, Config{SearchRange: r}, field, 0, 2)

	for mby := 0; mby < 2; mby++ {
		for mbx := 0; mbx < 2; mbx++ {
			for _, m := range h264.AllModes {
				w, h := m.Size()
				for k := 0; k < m.Count(); k++ {
					ox, oy := m.Offset(k)
					x, y := mbx*16+ox, mby*16+oy
					bestSAD := int32(math.MaxInt32)
					var bestMV h264.MV
					for dy := -r; dy < r; dy++ {
						for dx := -r; dx < r; dx++ {
							s := SADRef(cur.Y, ref.Y, x, y, x+dx, y+dy, w, h)
							if s < bestSAD {
								bestSAD = s
								bestMV = h264.MV{X: int16(dx), Y: int16(dy)}
							}
						}
					}
					mv, cost := field.Get(mbx, mby, m.Base()+k, 0)
					if cost != bestSAD {
						t.Fatalf("MB(%d,%d) %v/%d: SAD %d, oracle %d", mbx, mby, m, k, cost, bestSAD)
					}
					if mv != bestMV {
						t.Fatalf("MB(%d,%d) %v/%d: MV %v, oracle %v (same scan order expected)",
							mbx, mby, m, k, mv, bestMV)
					}
				}
			}
		}
	}
}

func TestRowSlicedSearchIsBitExact(t *testing.T) {
	cur := randomFrame(48, 64, 6)
	ref := randomFrame(48, 64, 7)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	cfg := Config{SearchRange: 4}

	full := h264.NewMVField(3, 4, 1)
	SearchRows(cur, dpb, cfg, full, 0, 4)

	part := h264.NewMVField(3, 4, 1)
	SearchRows(cur, dpb, cfg, part, 2, 4)
	SearchRows(cur, dpb, cfg, part, 0, 1)
	SearchRows(cur, dpb, cfg, part, 1, 2)

	if !full.Equal(part) {
		t.Fatal("row-sliced FSBM is not bit-exact with full search")
	}
}

func TestMultiRefPicksBetterFrame(t *testing.T) {
	base := randomFrame(64, 48, 8)
	far := randomFrame(64, 48, 9) // unrelated content
	cur := shiftedFrame(base, 2, 1)
	dpb := h264.NewDPB(2)
	dpb.Push(far)  // will be ref index 1 after next push
	dpb.Push(base) // ref index 0
	field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 2)
	SearchRows(cur, dpb, Config{SearchRange: 4}, field, 0, cur.MBHeight())
	_, c0 := field.Get(1, 1, 0, 0)
	_, c1 := field.Get(1, 1, 0, 1)
	if c0 != 0 {
		t.Fatalf("matching reference should give SAD 0, got %d", c0)
	}
	if c1 == 0 {
		t.Fatal("unrelated reference should not give SAD 0")
	}
}

func TestDPBRampUpMarksMissingRefs(t *testing.T) {
	cur := randomFrame(32, 32, 10)
	ref := randomFrame(32, 32, 11)
	dpb := h264.NewDPB(4)
	dpb.Push(ref) // only one reference available
	field := h264.NewMVField(2, 2, 4)
	SearchRows(cur, dpb, Config{SearchRange: 2}, field, 0, 2)
	for rf := 1; rf < 4; rf++ {
		_, cost := field.Get(0, 0, 0, rf)
		if cost != math.MaxInt32 {
			t.Fatalf("missing ref %d should be unusable, cost=%d", rf, cost)
		}
	}
	if _, cost := field.Get(0, 0, 0, 0); cost == math.MaxInt32 {
		t.Fatal("available ref marked unusable")
	}
}

func TestConfigHelpers(t *testing.T) {
	c, err := SAFromSize(64)
	if err != nil {
		t.Fatal(err)
	}
	if c.SearchRange != 32 {
		t.Fatalf("SAFromSize(64).SearchRange = %d", c.SearchRange)
	}
	c32, _ := SAFromSize(32)
	if c32.Candidates()*4 != c.Candidates() {
		t.Fatal("candidate count must quadruple between successive SA sizes")
	}
}

func TestSAFromSizeValidatesAndRounds(t *testing.T) {
	// Regression: SA 1 used to silently truncate to SearchRange 0, which
	// only surfaced later as a "search range 0 < 1" panic inside
	// SearchRows. The conversion site must reject it by name.
	for _, sa := range []int{1, 0, -4} {
		if _, err := SAFromSize(sa); err == nil {
			t.Fatalf("SAFromSize(%d) must fail", sa)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%d", sa)) {
			t.Fatalf("SAFromSize(%d) error %q does not name the SA value", sa, err)
		}
	}
	// Odd sizes round up to the next even diameter instead of truncating.
	c, err := SAFromSize(33)
	if err != nil {
		t.Fatal(err)
	}
	if c.SearchRange != 17 {
		t.Fatalf("SAFromSize(33).SearchRange = %d, want 17 (rounded up)", c.SearchRange)
	}
}

func TestEvalsCountedOncePerCall(t *testing.T) {
	// Regression for the hot-loop atomic contention fix: the eval counter
	// is now accumulated locally and published once per SearchRows call;
	// the final count must equal the old per-(MB, ref) accounting.
	cur := randomFrame(48, 48, 30)
	ref := randomFrame(48, 48, 31)
	dpb := h264.NewDPB(2)
	dpb.Push(ref)
	var evals int64
	cfg := Config{SearchRange: 4, Evals: &evals}
	field := h264.NewMVField(3, 3, 2)
	SearchRows(cur, dpb, cfg, field, 0, 2)
	SearchRows(cur, dpb, cfg, field, 2, 3)
	// 9 macroblocks, 1 usable reference (1 of 2 DPB slots filled), 64
	// candidates each; ramp-up refs must not count.
	want := int64(9 * 1 * cfg.Candidates())
	if evals != want {
		t.Fatalf("evals = %d, want %d", evals, want)
	}
}

// flatFrame returns a w×h frame whose every sample is v.
func flatFrame(w, h int, v uint8) *h264.Frame {
	f := h264.NewFrame(w, h)
	f.Y.Fill(v)
	f.Cb.Fill(v)
	f.Cr.Fill(v)
	return f
}

func TestSearchRowsMatchesScalarReference(t *testing.T) {
	// The SWAR kernel must be bit-exact with the retained scalar kernel —
	// same SADs, same vectors, same tie-breaking.
	matchesRef := func(t *testing.T, cur, ref *h264.Frame, r int) *h264.MVField {
		t.Helper()
		dpb := h264.NewDPB(1)
		dpb.Push(ref)
		cfg := Config{SearchRange: r}
		fast := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
		slow := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
		SearchRows(cur, dpb, cfg, fast, 0, cur.MBHeight())
		SearchRowsRef(cur, dpb, cfg, slow, 0, cur.MBHeight())
		if !fast.Equal(slow) {
			t.Fatal("SWAR search differs from scalar reference")
		}
		return fast
	}
	// wantAll checks that every partition of macroblock (0,0) found mv at
	// the given SAD per sample.
	wantAll := func(t *testing.T, field *h264.MVField, mv h264.MV, perSample int32) {
		t.Helper()
		for _, m := range h264.AllModes {
			w, h := m.Size()
			for k := 0; k < m.Count(); k++ {
				got, cost := field.Get(0, 0, m.Base()+k, 0)
				if got != mv || cost != perSample*int32(w*h) {
					t.Fatalf("%v/%d: MV %v SAD %d, want %v SAD %d", m, k, got, cost, mv, perSample*int32(w*h))
				}
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		matchesRef(t, randomFrame(80, 64, 32), randomFrame(80, 64, 33), 6)
	})
	t.Run("flat", func(t *testing.T) {
		// Every candidate ties at SAD 0: each partition keeps the first in
		// scan order.
		const r = 6
		field := matchesRef(t, flatFrame(48, 32, 90), flatFrame(48, 32, 90), r)
		wantAll(t, field, h264.MV{X: -r, Y: -r}, 0)
	})
	t.Run("saturated", func(t *testing.T) {
		// Every sample differs by 255: the lane accumulators sit at their
		// extreme and the 16×16 SAD at 65 280, in every candidate.
		const r = 4
		field := matchesRef(t, flatFrame(32, 32, 0), flatFrame(32, 32, 255), r)
		wantAll(t, field, h264.MV{X: -r, Y: -r}, 255)
		field = matchesRef(t, flatFrame(32, 32, 255), flatFrame(32, 32, 0), r)
		wantAll(t, field, h264.MV{X: -r, Y: -r}, 255)
	})
	t.Run("max-range", func(t *testing.T) {
		// The largest search checkSearchArgs admits, with the only exact
		// match planted at its last candidate: the highest scan position
		// must survive the packed key.
		const r = h264.DefaultPad - 8
		cur := randomFrame(16, 16, 91)
		ref := randomFrame(16, 16, 92)
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				ref.Y.Set(x+r-1, y+r-1, cur.Y.At(x, y)) // inside the padded border
			}
		}
		field := matchesRef(t, cur, ref, r)
		wantAll(t, field, h264.MV{X: r - 1, Y: r - 1}, 0)
	})
}

func TestSearchRowsPanics(t *testing.T) {
	cur := randomFrame(32, 32, 12)
	dpb := h264.NewDPB(1)
	dpb.Push(randomFrame(32, 32, 13))
	field := h264.NewMVField(2, 2, 1)
	cases := []func(){
		func() { SearchRows(cur, dpb, Config{SearchRange: 0}, field, 0, 2) },
		func() { SearchRows(cur, dpb, Config{SearchRange: 300}, field, 0, 2) },
		func() { SearchRows(cur, dpb, Config{SearchRange: 2}, field, 0, 3) },
		func() { SearchRows(cur, dpb, Config{SearchRange: 2}, h264.NewMVField(1, 1, 1), 0, 1) },
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

func BenchmarkSearchMB(b *testing.B) {
	cur := randomFrame(64, 48, 20)
	ref := randomFrame(64, 48, 21)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	cfg := Config{SearchRange: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SearchRows(cur, dpb, cfg, field, 0, 1)
	}
}
