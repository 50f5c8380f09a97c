package me

import (
	"bytes"
	"math/rand"
	"testing"

	"feves/internal/h264"
)

// FuzzSearchMatchesRef is differential: whatever the samples, the search
// range, the reference count, the row slice and the algorithm, the kernel
// fills the field exactly as its scalar oracle does — SearchRowsRef for the
// full search, searchRowsAlgoRef for the fast ones.
func FuzzSearchMatchesRef(f *testing.F) {
	const side = 32 // 2×2 macroblocks
	random := make([]byte, 3*side*side)
	rand.New(rand.NewSource(1)).Read(random)
	checker := make([]byte, 2*side*side)
	for i := range checker {
		if (i%side+i/side)%2 == 0 {
			checker[i] = 255
		}
	}
	zeroVs255 := append(make([]byte, side*side), bytes.Repeat([]byte{255}, side*side)...)
	f.Add(random, uint8(7), uint8(1), uint8(0), uint8(0))
	f.Add(random, uint8(1), uint8(3), uint8(1), uint8(2))
	f.Add([]byte{90}, uint8(3), uint8(0), uint8(2), uint8(0)) // flat
	f.Add(zeroVs255, uint8(4), uint8(0), uint8(0), uint8(1))
	f.Add(checker, uint8(0), uint8(1), uint8(0), uint8(2))

	f.Fuzz(func(t *testing.T, pix []byte, rangeSel, refSel, rowSel, algoSel uint8) {
		if len(pix) == 0 {
			return
		}
		// Luma planes are cut from pix end to end, wrapping around: the
		// current frame first, then each reference.
		next := 0
		frame := func() *h264.Frame {
			fr := h264.NewFrame(side, side)
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					fr.Y.Set(x, y, pix[next%len(pix)])
					next++
				}
			}
			fr.ExtendBorders()
			return fr
		}
		cur := frame()
		numRF := 1 + int(refSel)%2
		dpb := h264.NewDPB(numRF)
		dpb.Push(frame())
		if refSel&2 != 0 && numRF == 2 { // else the second reference is still ramping up
			dpb.Push(frame())
		}
		cfg := Config{SearchRange: 1 + int(rangeSel)%8}
		algo := Algorithm(algoSel % 3)
		rows := [][2]int{{0, 2}, {0, 1}, {1, 2}}[rowSel%3]

		got := h264.NewMVField(2, 2, numRF)
		want := h264.NewMVField(2, 2, numRF)
		SearchRowsAlgo(algo, cur, dpb, cfg, got, rows[0], rows[1])
		searchRowsAlgoRef(algo, cur, dpb, cfg, want, rows[0], rows[1])
		if !got.EqualRows(want, rows[0], rows[1]) {
			t.Fatalf("%v range %d, %d of %d references, rows %v: field differs from the scalar reference",
				algo, cfg.SearchRange, dpb.Len(), numRF, rows)
		}
	})
}
