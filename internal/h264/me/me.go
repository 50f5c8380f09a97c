// Package me implements the Motion Estimation inter-loop module of the
// FEVES reproduction: Full-Search Block-Matching (FSBM) over a configurable
// square search area, for multiple reference frames, producing an
// integer-pel motion vector and SAD for each of the 41 partitions (7
// partitioning modes) of every macroblock.
//
// One kernel serves the full search and the fast ones, in two steps per
// candidate displacement. h264.MBLanes.BandSADs computes the sixteen 4×4
// SADs of the macroblock: the current macroblock is split once into 16-bit
// SWAR lanes (even and odd samples of each eight, the lane bias applied), a
// candidate's reference rows are differenced against them eight samples a
// word, four rows accumulate in the lanes, and each 4-row band is reduced
// horizontally once. bestKeys.fold is the classic SAD-reuse decomposition:
// it aggregates the sixteen bottom-up into the 8×4, 4×8, 8×8, 16×8, 8×16
// and 16×16 partition SADs, so the full partition tree costs barely more
// than a single 16×16 search, and keeps the 41 running minima as packed
// (SAD, scan position) keys whose plain minimum is the first-best candidate
// in scan order. Neither step branches on sample values: the work per
// candidate is constant, which is what makes a row's cost predictable for
// the load balancer.
//
// SearchRows is row-sliceable and reads only the current frame and the
// (read-only) reference planes, so any cross-device row distribution is
// bit-exact with a single-device search.
package me

import (
	"fmt"
	"math"

	"feves/internal/h264"
)

// Config holds the motion-estimation parameters.
type Config struct {
	// SearchRange is the maximum displacement in full pixels; the search
	// area is the (2·SearchRange)² window of the paper (SA 32×32 means
	// SearchRange 16).
	SearchRange int
	// Evals, when non-nil, accumulates the number of block-SAD
	// evaluations performed (atomically, so row-sliced searches may run
	// concurrently). It quantifies the workload-predictability argument
	// behind the paper's FSBM choice: full search evaluates a constant
	// count per macroblock, fast algorithms a content-dependent one.
	Evals *int64
}

// SAFromSize converts the paper's "search area size" (e.g. 64 for a 64×64
// SA) into a Config. Odd sizes are rounded up to the next even size (the SA
// is a diameter: SearchRange = SA/2); sizes below 2 cannot express a single
// full pixel of displacement and are rejected.
func SAFromSize(sa int) (Config, error) {
	if sa < 2 {
		return Config{}, fmt.Errorf("me: search area size %d is too small: the smallest search area is 2×2 (search range 1)", sa)
	}
	if sa%2 != 0 {
		sa++ // round an odd diameter up rather than silently truncating
	}
	return Config{SearchRange: sa / 2}, nil
}

// Candidates returns the number of candidate displacements evaluated per
// macroblock and reference frame — the quantity that quadruples between
// successive SA sizes in Fig. 6(a).
func (c Config) Candidates() int {
	n := 2 * c.SearchRange
	return n * n
}

// SearchRows runs FSBM for macroblock rows [rowLo, rowHi) of cf against
// every reference frame in the DPB, storing integer-pel vectors and SADs in
// field. Entries for reference indexes ≥ dpb.Len() (the DPB ramp-up frames)
// are marked unusable with cost math.MaxInt32.
func SearchRows(cf *h264.Frame, dpb *h264.DPB, cfg Config, field *h264.MVField, rowLo, rowHi int) {
	SearchRowsAlgo(FullSearch, cf, dpb, cfg, field, rowLo, rowHi)
}

func checkSearchArgs(cf *h264.Frame, cfg Config, field *h264.MVField, rowLo, rowHi int) {
	if cfg.SearchRange < 1 {
		panic(fmt.Sprintf("me: search range %d < 1", cfg.SearchRange))
	}
	if cfg.SearchRange > h264.DefaultPad-8 {
		panic(fmt.Sprintf("me: search range %d exceeds plane padding", cfg.SearchRange))
	}
	if field.MBW != cf.MBWidth() || field.MBH != cf.MBHeight() {
		panic("me: MV field does not match frame geometry")
	}
	if rowLo < 0 || rowHi > cf.MBHeight() || rowLo >= rowHi {
		panic(fmt.Sprintf("me: bad row range [%d,%d)", rowLo, rowHi))
	}
}

func markUnusable(field *h264.MVField, mbx, mby, rf int) {
	for part := 0; part < h264.TotalPartitions; part++ {
		field.Set(mbx, mby, part, rf, h264.MV{}, math.MaxInt32)
	}
}

// searchMB exhaustively searches one macroblock in one reference frame and
// returns the number of candidates evaluated, (2r)² whatever the content.
func searchMB(cur, ref *h264.Plane, r int, field *h264.MVField, mbx, mby, rf int) int {
	x0, y0 := mbx*h264.MBSize, mby*h264.MBSize
	var lanes h264.MBLanes
	lanes.Load(cur, x0, y0)
	var best bestKeys
	best.reset()

	refRaw, stride := ref.Raw(), ref.Stride
	side := 2 * r
	var blk [16]uint32
	scan := uint64(0)
	for dy := -r; dy < r; dy++ {
		rowBase := ref.Idx(x0-r, y0+dy)
		for dx := 0; dx < side; dx++ {
			lanes.BandSADs(0, 4, refRaw[rowBase+dx:], stride, &blk)
			best.fold(&blk, scan)
			scan++
		}
	}

	for part := range best {
		i, sad := best.at(part)
		mv := h264.MV{X: int16(i%side - r), Y: int16(i/side - r)}
		field.Set(mbx, mby, part, rf, mv, sad)
	}
	return side * side
}

// bestKeys holds the running minimum of each of the 41 partitions as the
// packed key sad<<scanBits | scan, scan being the candidate's position in
// evaluation order. The smaller key is the smaller SAD and, between equal
// SADs, the candidate evaluated first: the strict "<" rule of SearchRowsRef
// without a branch.
type bestKeys [h264.TotalPartitions]uint64

const (
	scanBits = 24
	scanMask = 1<<scanBits - 1

	// Where each mode's partitions start in the 41-entry array:
	// h264.PartMode.Base as constants, so fold indexes without bounds
	// checks (the SearchRowsRef oracle goes through Base itself).
	base16x8 = 1
	base8x16 = base16x8 + 2
	base8x8  = base8x16 + 2
	base8x4  = base8x8 + 4
	base4x8  = base8x4 + 8
	base4x4  = base4x8 + 8

	// maxCandidates is the largest full search checkSearchArgs admits; the
	// constant below does not compile unless every one of its candidates
	// numbers within the key's scan field.
	maxCandidates        = (2 * (h264.DefaultPad - 8)) * (2 * (h264.DefaultPad - 8))
	_             uint64 = scanMask - (maxCandidates - 1)
)

func (b *bestKeys) reset() {
	for i := range b {
		b[i] = math.MaxUint64
	}
}

// at unpacks partition part's minimum into the scan position that won it and
// its SAD.
func (b *bestKeys) at(part int) (scan int, sad int32) {
	return int(b[part] & scanMask), int32(b[part] >> scanBits)
}

// fold aggregates the sixteen 4×4 SADs of the candidate numbered scan
// bottom-up into the 8×4, 4×8, 8×8, 16×8, 8×16 and 16×16 partition SADs and
// lowers every running minimum the candidate beats.
func (b *bestKeys) fold(blk *[16]uint32, scan uint64) {
	// Cells in key position, so a sum is one OR from its key.
	var c [16]uint64
	for i, v := range blk {
		c[i] = uint64(v) << scanBits
		b.lower(base4x4+i, c[i]|scan)
	}

	// 8×4: cell pairs along a row, two per row. 4×8: cell pairs down a
	// column, four per half.
	var w [8]uint64
	for i := range w {
		w[i] = c[2*i] + c[2*i+1]
		b.lower(base8x4+i, w[i]|scan)
	}
	for i := 0; i < 4; i++ {
		b.lower(base4x8+i, (c[i]+c[i+4])|scan)
		b.lower(base4x8+4+i, (c[i+8]+c[i+12])|scan)
	}

	q0, q1, q2, q3 := w[0]+w[2], w[1]+w[3], w[4]+w[6], w[5]+w[7]
	b.lower(base8x8+0, q0|scan)
	b.lower(base8x8+1, q1|scan)
	b.lower(base8x8+2, q2|scan)
	b.lower(base8x8+3, q3|scan)
	b.lower(base16x8+0, (q0+q1)|scan)
	b.lower(base16x8+1, (q2+q3)|scan)
	b.lower(base8x16+0, (q0+q2)|scan)
	b.lower(base8x16+1, (q1+q3)|scan)
	b.lower(0, (q0+q1+q2+q3)|scan)
}

func (b *bestKeys) lower(part int, key uint64) { b[part] = min(b[part], key) }
