package sme

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"feves/internal/h264"
	"feves/internal/h264/interp"
)

// FuzzRefineMatchesRef is differential: whatever the samples, the integer
// field — any vector within ±range on any partition, up to the largest range
// the codec admits, on a frame small enough that every macroblock is a
// corner — the unusable entries, the reference count and the row slice, the
// kernel fills the output exactly as RefineRowsRef does.
func FuzzRefineMatchesRef(f *testing.F) {
	const side = 32 // 2×2 macroblocks
	random := make([]byte, 3*side*side)
	rand.New(rand.NewSource(1)).Read(random)
	zeroVs255 := append(make([]byte, side*side), bytes.Repeat([]byte{255}, side*side)...)
	f.Add(random, random[:97], uint8(7), uint8(1), uint8(0))
	f.Add(random, []byte{0}, uint8(0), uint8(0), uint8(1)) // every vector zero: one window
	f.Add(random, []byte{0, 255}, uint8(255), uint8(3), uint8(2))
	f.Add(zeroVs255, []byte{128, 3, 250}, uint8(16), uint8(2), uint8(0)) // every cell saturated
	f.Add([]byte{90}, random[:41], uint8(3), uint8(1), uint8(0))         // flat: every probe ties

	f.Fuzz(func(t *testing.T, pix, vec []byte, rangeSel, refSel, rowSel uint8) {
		if len(pix) == 0 || len(vec) == 0 {
			return
		}
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
		sfs := make([]*interp.SubFrame, numRF)
		for rf := range sfs {
			if rf == 1 && refSel&2 == 0 {
				break // the second reference is still ramping up
			}
			sfs[rf] = interp.NewSubFrame(side, side)
			interp.Interpolate(frame().Y, sfs[rf])
		}
		r := 1 + int(rangeSel)%(h264.DefaultPad-8)
		meF := h264.NewMVField(2, 2, numRF)
		for i := range meF.MV {
			b := func(k int) int { return int(vec[(3*i+k)%len(vec)]) }
			// Byte values 0 and 255 land on −r and +r.
			meF.MV[i] = h264.MV{X: int16(b(0)*2*r/255 - r), Y: int16(b(1)*2*r/255 - r)}
			meF.Cost[i] = int32(b(2))
			if sfs[i%numRF] == nil || b(2)%7 == 0 {
				meF.Cost[i] = math.MaxInt32
			}
		}
		rows := [][2]int{{0, 2}, {0, 1}, {1, 2}}[rowSel%3]

		got := h264.NewMVField(2, 2, numRF)
		want := h264.NewMVField(2, 2, numRF)
		RefineRows(cur, sfs, meF, got, rows[0], rows[1])
		RefineRowsRef(cur, sfs, meF, want, rows[0], rows[1])
		if !got.EqualRows(want, rows[0], rows[1]) {
			t.Fatalf("range %d, %d references, rows %v: field differs from the scalar reference", r, numRF, rows)
		}
	})
}
