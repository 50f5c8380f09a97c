package me

import (
	"math"

	"feves/internal/h264"
)

// SearchRowsRef is the scalar sample-at-a-time FSBM kernel retained as the
// bit-exactness oracle for the SWAR kernel and as the baseline the device
// calibration and the bench-regression speedup ratios are measured against.
// It matches SearchRows exactly (same scan order, same tie-breaking) but
// shares none of its inner-loop code. cfg.Evals is ignored.
func SearchRowsRef(cf *h264.Frame, dpb *h264.DPB, cfg Config, field *h264.MVField, rowLo, rowHi int) {
	checkSearchArgs(cf, cfg, field, rowLo, rowHi)
	nrf := dpb.Len()
	if nrf > field.NumRF {
		nrf = field.NumRF
	}
	for mby := rowLo; mby < rowHi; mby++ {
		for mbx := 0; mbx < cf.MBWidth(); mbx++ {
			for rf := 0; rf < field.NumRF; rf++ {
				if rf < nrf {
					searchMBRef(cf.Y, dpb.Ref(rf).Y, cfg.SearchRange, field, mbx, mby, rf)
				} else {
					markUnusable(field, mbx, mby, rf)
				}
			}
		}
	}
}

func searchMBRef(cur, ref *h264.Plane, r int, field *h264.MVField, mbx, mby, rf int) {
	x0, y0 := mbx*h264.MBSize, mby*h264.MBSize

	var best [h264.TotalPartitions]int32
	var bestMV [h264.TotalPartitions]h264.MV
	for i := range best {
		best[i] = math.MaxInt32
	}

	curRaw, refRaw := cur.Raw(), ref.Raw()
	refStride := ref.Stride

	var curOff [16]int
	for y := 0; y < 16; y++ {
		curOff[y] = cur.Idx(x0, y0+y)
	}

	for dy := -r; dy < r; dy++ {
		for dx := -r; dx < r; dx++ {
			var blk4 [16]int32
			refBase := ref.Idx(x0+dx, y0+dy)
			for y := 0; y < 16; y++ {
				co := curOff[y]
				ro := refBase + y*refStride
				bi := (y >> 2) * 4
				for g := 0; g < 4; g++ {
					c0, c1, c2, c3 := curRaw[co], curRaw[co+1], curRaw[co+2], curRaw[co+3]
					r0, r1, r2, r3 := refRaw[ro], refRaw[ro+1], refRaw[ro+2], refRaw[ro+3]
					blk4[bi+g] += absDiff(c0, r0) + absDiff(c1, r1) + absDiff(c2, r2) + absDiff(c3, r3)
					co += 4
					ro += 4
				}
			}

			var s8x4 [8]int32
			for row := 0; row < 4; row++ {
				s8x4[row*2] = blk4[row*4] + blk4[row*4+1]
				s8x4[row*2+1] = blk4[row*4+2] + blk4[row*4+3]
			}
			var s4x8 [8]int32
			for half := 0; half < 2; half++ {
				for col := 0; col < 4; col++ {
					s4x8[half*4+col] = blk4[(2*half)*4+col] + blk4[(2*half+1)*4+col]
				}
			}
			var s8x8 [4]int32
			s8x8[0] = s8x4[0] + s8x4[2]
			s8x8[1] = s8x4[1] + s8x4[3]
			s8x8[2] = s8x4[4] + s8x4[6]
			s8x8[3] = s8x4[5] + s8x4[7]
			s16x8 := [2]int32{s8x8[0] + s8x8[1], s8x8[2] + s8x8[3]}
			s8x16 := [2]int32{s8x8[0] + s8x8[2], s8x8[1] + s8x8[3]}
			s16x16 := s16x8[0] + s16x8[1]

			mv := h264.MV{X: int16(dx), Y: int16(dy)}
			update(&best, &bestMV, h264.Part16x16.Base(), mv, s16x16)
			updateSlice(&best, &bestMV, h264.Part16x8.Base(), mv, s16x8[:])
			updateSlice(&best, &bestMV, h264.Part8x16.Base(), mv, s8x16[:])
			updateSlice(&best, &bestMV, h264.Part8x8.Base(), mv, s8x8[:])
			updateSlice(&best, &bestMV, h264.Part8x4.Base(), mv, s8x4[:])
			updateSlice(&best, &bestMV, h264.Part4x8.Base(), mv, s4x8[:])
			updateSlice(&best, &bestMV, h264.Part4x4.Base(), mv, blk4[:])
		}
	}

	for part := 0; part < h264.TotalPartitions; part++ {
		field.Set(mbx, mby, part, rf, bestMV[part], best[part])
	}
}

func update(best *[h264.TotalPartitions]int32, bestMV *[h264.TotalPartitions]h264.MV, idx int, mv h264.MV, sad int32) {
	if sad < best[idx] {
		best[idx] = sad
		bestMV[idx] = mv
	}
}

func updateSlice(best *[h264.TotalPartitions]int32, bestMV *[h264.TotalPartitions]h264.MV, base int, mv h264.MV, sads []int32) {
	for k, sad := range sads {
		if sad < best[base+k] {
			best[base+k] = sad
			bestMV[base+k] = mv
		}
	}
}

func absDiff(a, b uint8) int32 {
	if a > b {
		return int32(a - b)
	}
	return int32(b - a)
}

// SADRef is the scalar sample-at-a-time SAD retained as the oracle for the
// SWAR kernels: it shares no code with them, so tests comparing the two
// genuinely cross-check the lane arithmetic.
func SADRef(cur, ref *h264.Plane, cx, cy, rx, ry, w, h int) int32 {
	var sum int32
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum += absDiff(cur.At(cx+x, cy+y), ref.At(rx+x, ry+y))
		}
	}
	return sum
}
