package me

import (
	"math"
	"testing"

	"feves/internal/h264"
)

// smoothScene builds low-frequency content whose SAD landscape is a
// smooth basin — the statistics fast ME relies on. (On noise-like content
// the fast patterns stall on the flat plateau, which is precisely the
// content-dependence the paper avoids by fixing FSBM.)
func smoothScene(w, h int) *h264.Frame {
	f := h264.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 128 + 60*math.Sin(0.07*float64(x)+0.05*float64(y)) +
				30*math.Sin(0.03*float64(x)-0.04*float64(y))
			f.Y.Set(x, y, uint8(v))
		}
	}
	f.ExtendBorders()
	return f
}

// searchRowsAlgoRef is the oracle for the fast searches, written with SADRef
// and sharing nothing with BandSADs/fold: the macroblock-level pattern on
// the 16×16 SAD, then every partition on its own over the five clamped
// candidates, first-best under strict "<".
func searchRowsAlgoRef(algo Algorithm, cf *h264.Frame, dpb *h264.DPB, cfg Config, field *h264.MVField, rowLo, rowHi int) {
	if algo == FullSearch {
		SearchRowsRef(cf, dpb, cfg, field, rowLo, rowHi)
		return
	}
	r := cfg.SearchRange
	for mby := rowLo; mby < rowHi; mby++ {
		for mbx := 0; mbx < cf.MBWidth(); mbx++ {
			for rf := 0; rf < field.NumRF; rf++ {
				if rf >= dpb.Len() {
					markUnusable(field, mbx, mby, rf)
					continue
				}
				cur, ref := cf.Y, dpb.Ref(rf).Y
				x0, y0 := mbx*h264.MBSize, mby*h264.MBSize
				cost16 := func(dx, dy int) int32 {
					return SADRef(cur, ref, x0, y0, x0+dx, y0+dy, 16, 16)
				}
				var bx, by int
				if algo == ThreeStep {
					bx, by = threeStep(cost16, r)
				} else {
					bx, by = diamond(cost16, r)
				}
				cands := [5][2]int{{bx, by}, {bx + 1, by}, {bx - 1, by}, {bx, by + 1}, {bx, by - 1}}
				for _, mode := range h264.AllModes {
					w, h := mode.Size()
					for k := 0; k < mode.Count(); k++ {
						ox, oy := mode.Offset(k)
						px, py := x0+ox, y0+oy
						best := int32(math.MaxInt32)
						var bmv h264.MV
						for _, c := range cands {
							dx, dy := clampRange(c[0], r), clampRange(c[1], r)
							if s := SADRef(cur, ref, px, py, px+dx, py+dy, w, h); s < best {
								best = s
								bmv = h264.MV{X: int16(dx), Y: int16(dy)}
							}
						}
						field.Set(mbx, mby, mode.Base()+k, rf, bmv, best)
					}
				}
			}
		}
	}
}

func TestFastSearchMatchesPartitionReference(t *testing.T) {
	// Search ranges 1 and 2 clamp the refinement candidates onto each
	// other, so the tie-break between duplicates is exercised; the first
	// frame of each run has one of its two references still ramping up.
	cur := randomFrame(64, 48, 50)
	refs := []*h264.Frame{randomFrame(64, 48, 51), shiftedFrame(cur, 1, -1)}
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		for _, r := range []int{1, 2, 8} {
			dpb := h264.NewDPB(2)
			for _, ref := range refs {
				dpb.Push(ref)
				cfg := Config{SearchRange: r}
				got := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 2)
				want := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 2)
				SearchRowsAlgo(algo, cur, dpb, cfg, got, 0, cur.MBHeight())
				searchRowsAlgoRef(algo, cur, dpb, cfg, want, 0, cur.MBHeight())
				if !got.Equal(want) {
					t.Fatalf("%v range %d with %d reference(s): field differs from the per-partition reference", algo, r, dpb.Len())
				}
			}
		}
	}
}

func TestFastAlgosFindGlobalTranslation(t *testing.T) {
	ref := smoothScene(96, 96)
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		for _, sh := range [][2]int{{0, 0}, {4, -2}, {-6, 6}} {
			cur := shiftedFrame(ref, sh[0], sh[1])
			dpb := h264.NewDPB(1)
			dpb.Push(ref)
			field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
			SearchRowsAlgo(algo, cur, dpb, Config{SearchRange: 16}, field, 0, cur.MBHeight())
			mv, cost := field.Get(2, 2, 0, 0)
			if cost != 0 {
				t.Errorf("%v shift %v: SAD %d, want 0", algo, sh, cost)
			}
			if int(mv.X) != -sh[0] || int(mv.Y) != -sh[1] {
				t.Errorf("%v shift %v: MV %v", algo, sh, mv)
			}
		}
	}
}

func TestFastAlgosNeverWorseThanZeroMV(t *testing.T) {
	cur := randomFrame(64, 48, 31)
	ref := randomFrame(64, 48, 32)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
		SearchRowsAlgo(algo, cur, dpb, Config{SearchRange: 8}, field, 0, cur.MBHeight())
		for mby := 0; mby < cur.MBHeight(); mby++ {
			for mbx := 0; mbx < cur.MBWidth(); mbx++ {
				zero := SADRef(cur.Y, ref.Y, mbx*16, mby*16, mbx*16, mby*16, 16, 16)
				_, cost := field.Get(mbx, mby, 0, 0)
				if cost > zero {
					t.Fatalf("%v MB(%d,%d): %d worse than zero-MV %d", algo, mbx, mby, cost, zero)
				}
			}
		}
	}
}

func TestFastNeverBeatsFullSearch(t *testing.T) {
	// Full search is exhaustive: no fast algorithm can find a lower SAD.
	cur := randomFrame(64, 64, 33)
	ref := randomFrame(64, 64, 34)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	cfg := Config{SearchRange: 8}
	full := h264.NewMVField(4, 4, 1)
	SearchRows(cur, dpb, cfg, full, 0, 4)
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		fast := h264.NewMVField(4, 4, 1)
		SearchRowsAlgo(algo, cur, dpb, cfg, fast, 0, 4)
		for mby := 0; mby < 4; mby++ {
			for mbx := 0; mbx < 4; mbx++ {
				for part := 0; part < h264.TotalPartitions; part++ {
					_, fc := full.Get(mbx, mby, part, 0)
					_, qc := fast.Get(mbx, mby, part, 0)
					if qc < fc {
						t.Fatalf("%v found SAD %d below exhaustive %d", algo, qc, fc)
					}
				}
			}
		}
	}
}

func TestFastRowSliceable(t *testing.T) {
	cur := randomFrame(48, 64, 35)
	ref := randomFrame(48, 64, 36)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	cfg := Config{SearchRange: 8}
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		full := h264.NewMVField(3, 4, 1)
		SearchRowsAlgo(algo, cur, dpb, cfg, full, 0, 4)
		part := h264.NewMVField(3, 4, 1)
		SearchRowsAlgo(algo, cur, dpb, cfg, part, 2, 4)
		SearchRowsAlgo(algo, cur, dpb, cfg, part, 0, 2)
		if !full.Equal(part) {
			t.Fatalf("%v is not row-sliceable", algo)
		}
	}
}

func TestFastVectorsWithinRange(t *testing.T) {
	cur := randomFrame(48, 48, 37)
	ref := randomFrame(48, 48, 38)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	const r = 4
	for _, algo := range []Algorithm{ThreeStep, Diamond} {
		field := h264.NewMVField(3, 3, 1)
		SearchRowsAlgo(algo, cur, dpb, Config{SearchRange: r}, field, 0, 3)
		for mby := 0; mby < 3; mby++ {
			for mbx := 0; mbx < 3; mbx++ {
				for part := 0; part < h264.TotalPartitions; part++ {
					mv, _ := field.Get(mbx, mby, part, 0)
					if int(mv.X) < -r || int(mv.X) >= r || int(mv.Y) < -r || int(mv.Y) >= r {
						t.Fatalf("%v vector %v outside ±%d", algo, mv, r)
					}
				}
			}
		}
	}
}

func TestFastDPBRampUp(t *testing.T) {
	cur := randomFrame(32, 32, 39)
	ref := randomFrame(32, 32, 40)
	dpb := h264.NewDPB(3)
	dpb.Push(ref)
	field := h264.NewMVField(2, 2, 3)
	SearchRowsAlgo(Diamond, cur, dpb, Config{SearchRange: 4}, field, 0, 2)
	for rf := 1; rf < 3; rf++ {
		if _, c := field.Get(0, 0, 0, rf); c != math.MaxInt32 {
			t.Fatalf("missing ref %d should be unusable", rf)
		}
	}
}

func TestFullSearchDelegation(t *testing.T) {
	cur := randomFrame(32, 32, 41)
	ref := randomFrame(32, 32, 42)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	cfg := Config{SearchRange: 4}
	a := h264.NewMVField(2, 2, 1)
	SearchRowsAlgo(FullSearch, cur, dpb, cfg, a, 0, 2)
	b := h264.NewMVField(2, 2, 1)
	SearchRows(cur, dpb, cfg, b, 0, 2)
	if !a.Equal(b) {
		t.Fatal("FullSearch via SearchRowsAlgo differs from SearchRows")
	}
}

func TestAlgorithmString(t *testing.T) {
	if FullSearch.String() != "full-search" || ThreeStep.String() != "three-step" ||
		Diamond.String() != "diamond" || Algorithm(9).String() != "invalid" {
		t.Fatal("labels wrong")
	}
}

func BenchmarkFastVsFull(b *testing.B) {
	cur := randomFrame(64, 48, 43)
	ref := randomFrame(64, 48, 44)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	cfg := Config{SearchRange: 16}
	for _, algo := range []Algorithm{FullSearch, ThreeStep, Diamond} {
		b.Run(algo.String(), func(b *testing.B) {
			field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
			for i := 0; i < b.N; i++ {
				SearchRowsAlgo(algo, cur, dpb, cfg, field, 0, 1)
			}
		})
	}
}

func TestEvalCounting(t *testing.T) {
	cur := randomFrame(64, 48, 45)
	ref := randomFrame(64, 48, 46)
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	var evals int64
	cfg := Config{SearchRange: 8, Evals: &evals}
	field := h264.NewMVField(cur.MBWidth(), cur.MBHeight(), 1)
	SearchRows(cur, dpb, cfg, field, 0, cur.MBHeight())
	mbs := int64(cur.MBWidth() * cur.MBHeight())
	if evals != mbs*int64(cfg.Candidates()) {
		t.Fatalf("full search evals %d, want %d (content-independent constant)",
			evals, mbs*int64(cfg.Candidates()))
	}
	evals = 0
	SearchRowsAlgo(Diamond, cur, dpb, cfg, field, 0, cur.MBHeight())
	if evals <= 0 || evals >= mbs*int64(cfg.Candidates()) {
		t.Fatalf("diamond evals %d should be positive and far below full search", evals)
	}
}

func TestFastMEWorkloadIsContentDependent(t *testing.T) {
	// The design rationale behind the paper's FSBM choice, quantified:
	// full search evaluates the same count on any content, diamond's
	// count varies with motion.
	ref := smoothScene(96, 96)
	still := ref.Clone()
	moving := h264.NewFrame(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			moving.Y.Set(x, y, ref.Y.At(x-12, y-9))
		}
	}
	moving.ExtendBorders()
	dpb := h264.NewDPB(1)
	dpb.Push(ref)
	count := func(algo Algorithm, cf *h264.Frame) int64 {
		var evals int64
		cfg := Config{SearchRange: 16, Evals: &evals}
		field := h264.NewMVField(cf.MBWidth(), cf.MBHeight(), 1)
		SearchRowsAlgo(algo, cf, dpb, cfg, field, 0, cf.MBHeight())
		return evals
	}
	if a, b := count(FullSearch, still), count(FullSearch, moving); a != b {
		t.Fatalf("FSBM workload varied with content: %d vs %d", a, b)
	}
	if a, b := count(Diamond, still), count(Diamond, moving); a == b {
		t.Fatalf("diamond workload did not vary with content (%d)", a)
	}
}
