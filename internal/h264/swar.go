package h264

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
