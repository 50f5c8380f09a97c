package h264

import "encoding/binary"

// SWAR (SIMD-within-a-register) sample arithmetic shared by the ME and SME
// hot kernels: a uint64 is treated as four 16-bit lanes each holding a byte
// value, so eight samples are processed per step (even and odd bytes in two
// lane groups). This is what the paper's optimized CPU kernels get from SSE
// and the GPU kernels from coalesced uchar4 loads.
const (
	laneLow  = 0x00FF00FF00FF00FF
	laneOnes = 0x0001000100010001

	// LaneBias is bit 8 of every lane. OR-ed into the minuend it keeps each
	// lane's difference non-negative (256+d with d in [−255, 255]), so no
	// borrow crosses lanes.
	LaneBias = 0x0100010001000100
)

// EvenOdd splits eight samples loaded little-endian into their even and odd
// samples, each as four 16-bit lanes.
func EvenOdd(w uint64) (even, odd uint64) {
	return w & laneLow, (w >> 8) & laneLow
}

// LanesAbsDiffFrom256 returns 256−|a−b| per lane, for four 16-bit lanes
// holding byte values, a already carrying LaneBias (a kernel that reuses a
// against many b applies it once). The lane difference t = 256+d keeps its
// sign in bit 8; a lane with d < 0 already holds 256−|d|, and one with
// d ≥ 0 is negated within nine bits, so the two cases need no select. A
// caller sums n results per lane and recovers the SAD as n·256 − sum.
func LanesAbsDiffFrom256(a, b uint64) uint64 {
	t := a - b
	m := (t >> 8) & laneOnes // 1 iff the lane difference is ≥ 0
	s := (m << 9) - m        // 0x1FF where it is, 0 elsewhere
	return (t ^ s) + m       // 512−t where it is, t elsewhere
}

// SAD4 returns the SAD of four horizontally contiguous samples loaded
// little-endian as 32-bit words.
func SAD4(c, r uint32) int32 {
	ce, co := EvenOdd(uint64(c))
	re, ro := EvenOdd(uint64(r))
	s := LanesAbsDiffFrom256(ce|LaneBias, re) + LanesAbsDiffFrom256(co|LaneBias, ro)
	return 4*256 - int32(s&0xFFFF) - int32((s>>16)&0xFFFF)
}

// MBLanes is a macroblock in SWAR form, split once and reused by every
// candidate ME and SME difference against it, a four-row band at a time:
// row r of band b is four words of 16-bit lanes — the even and the odd
// samples of its left eight, then of its right eight — each carrying
// LaneBias.
type MBLanes [MBSize / 4][4][4]uint64

// Load splits the macroblock whose top-left sample is (x0, y0) of cur.
func (l *MBLanes) Load(cur *Plane, x0, y0 int) {
	raw := cur.Raw()
	for y := 0; y < MBSize; y++ {
		row := raw[cur.Idx(x0, y0+y):]
		le, lo := EvenOdd(binary.LittleEndian.Uint64(row))
		re, ro := EvenOdd(binary.LittleEndian.Uint64(row[8:]))
		l[y/4][y%4] = [4]uint64{le | LaneBias, lo | LaneBias, re | LaneBias, ro | LaneBias}
	}
}

// BandSADs computes the 4×4 SADs of the macroblock's four-row bands
// [lo, hi) against the 16×16 block whose top-left sample is ref[0], into
// blk's raster positions 4·band … 4·band+3; the other entries are left
// alone. ME asks for all four bands of a candidate, SME for the bands a
// probing partition covers. The four rows of a band accumulate in the
// 16-bit lanes as 256−|d| per sample — 4 rows × (even + odd) × 256 = 2048 per
// lane at most — and are turned into SADs and reduced horizontally once per
// band.
func (l *MBLanes) BandSADs(lo, hi int, ref []uint8, stride int, blk *[16]uint32) {
	const bandOf256 = 0x0800080008000800 // 4 rows × (even + odd) × 256, every lane
	for band := lo; band < hi; band++ {
		var left, right uint64
		rows := &l[band]
		for r := range rows {
			c := &rows[r]
			y := band*4 + r
			row := ref[y*stride : y*stride+MBSize : y*stride+MBSize]
			e, o := EvenOdd(binary.LittleEndian.Uint64(row))
			left += LanesAbsDiffFrom256(c[0], e) + LanesAbsDiffFrom256(c[1], o)
			e, o = EvenOdd(binary.LittleEndian.Uint64(row[8:]))
			right += LanesAbsDiffFrom256(c[2], e) + LanesAbsDiffFrom256(c[3], o)
		}
		// Lane k holds samples 2k and 2k+1 of its eight; adjacent lanes
		// pair up into the two 4-wide cells.
		left, right = bandOf256-left, bandOf256-right
		left += left >> 16
		right += right >> 16
		out := (*[4]uint32)(blk[band*4:])
		out[0] = uint32(left & 0xFFFF)
		out[1] = uint32(left >> 32 & 0xFFFF)
		out[2] = uint32(right & 0xFFFF)
		out[3] = uint32(right >> 32 & 0xFFFF)
	}
}
