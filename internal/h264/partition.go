package h264

// PartMode enumerates the seven inter-prediction macroblock partitionings of
// H.264/AVC considered by the paper: 16×16, 16×8, 8×16, 8×8, 8×4, 4×8 and
// 4×4 pixels. Following the paper's formulation each macroblock is
// partitioned uniformly by one mode (no per-8×8 sub-mode mixing).
type PartMode uint8

const (
	Part16x16 PartMode = iota
	Part16x8
	Part8x16
	Part8x8
	Part8x4
	Part4x8
	Part4x4
	NumPartModes = 7
)

// partDims holds the width and height in pixels of one partition per mode.
var partDims = [NumPartModes][2]int{
	{16, 16}, {16, 8}, {8, 16}, {8, 8}, {8, 4}, {4, 8}, {4, 4},
}

// partCounts holds the number of partitions per macroblock for each mode:
// 1, 2, 2, 4, 8, 8, 16 — 41 partitions in total.
var partCounts = [NumPartModes]int{1, 2, 2, 4, 8, 8, 16}

// TotalPartitions is the number of distinct partitions tracked per
// macroblock across all seven modes (1+2+2+4+8+8+16).
const TotalPartitions = 41

func (m PartMode) String() string {
	switch m {
	case Part16x16:
		return "16x16"
	case Part16x8:
		return "16x8"
	case Part8x16:
		return "8x16"
	case Part8x8:
		return "8x8"
	case Part8x4:
		return "8x4"
	case Part4x8:
		return "4x8"
	case Part4x4:
		return "4x4"
	}
	return "invalid"
}

// Size returns the partition width and height in pixels for the mode.
func (m PartMode) Size() (w, h int) { return partDims[m][0], partDims[m][1] }

// Count returns the number of partitions a macroblock has under this mode.
func (m PartMode) Count() int { return partCounts[m] }

// Offset returns the pixel offset of partition k (raster order) within the
// macroblock.
func (m PartMode) Offset(k int) (x, y int) {
	w, h := m.Size()
	perRow := MBSize / w
	return (k % perRow) * w, (k / perRow) * h
}

// Base returns the index of this mode's first partition within a flat
// 41-entry per-macroblock partition array.
func (m PartMode) Base() int {
	base := 0
	for i := PartMode(0); i < m; i++ {
		base += partCounts[i]
	}
	return base
}

// Blocks4x4 returns the indices (raster order, 0..15) of the 4×4 luma
// blocks covered by partition k of this mode. Used by the SAD-reuse motion
// estimation kernel, which computes sixteen 4×4 SADs per candidate and
// aggregates them into all 41 partition SADs.
func (m PartMode) Blocks4x4(k int) []int {
	x, y := m.Offset(k)
	w, h := m.Size()
	var out []int
	for by := y / 4; by < (y+h)/4; by++ {
		for bx := x / 4; bx < (x+w)/4; bx++ {
			out = append(out, by*4+bx)
		}
	}
	return out
}

// AllModes lists every partition mode in order.
var AllModes = [NumPartModes]PartMode{Part16x16, Part16x8, Part8x16, Part8x8, Part8x4, Part4x8, Part4x4}
