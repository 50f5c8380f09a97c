// Package codec assembles the inter-loop modules (ME, INT, SME, MC, TQ,
// TQ⁻¹, DBL, entropy coding) into a complete H.264/AVC-style encoder and a
// matching decoder.
//
// The encoder exposes two granularities:
//
//   - EncodeFrame / EncodeIntraFrame: single-call whole-frame encoding,
//     used as the single-device reference implementation.
//   - BeginFrame + RunInter: the inter loop over an InterPlan of per-device
//     row ranges, which the FEVES Video Coding Manager drives when the
//     workload is distributed across devices; RunME / RunINT / CompleteINT
//     / RunSME / RunRStar are its row-sliceable stages. Any row
//     distribution produces a bitstream and reconstruction bit-exact with
//     the whole-frame path (verified by tests).
//
// The bitstream is this reproduction's own container (magic "FVS1"), not a
// standard-compliant NAL stream; DESIGN.md documents the simplifications.
package codec

import (
	"errors"
	"fmt"
	"hash/crc32"

	"feves/internal/h264"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/me"
)

// Magic identifies the sequence header of this reproduction's bitstream.
var Magic = [4]byte{'F', 'V', 'S', '1'}

// ErrBadStream reports a malformed bitstream.
var ErrBadStream = errors.New("codec: malformed bitstream")

// EntropyMode selects the residual entropy backend.
type EntropyMode int

const (
	// EntropyVLC is the CAVLC-style run-level coder of the Baseline
	// profile the paper evaluates (default).
	EntropyVLC EntropyMode = iota
	// EntropyArith is the reproduction's CABAC-style adaptive binary
	// arithmetic backend (an optional extension; see internal/h264/entropy).
	EntropyArith
)

func (m EntropyMode) String() string {
	if m == EntropyArith {
		return "arith"
	}
	return "vlc"
}

// Config holds the sequence-level coding parameters, following the paper's
// experimental setup (IPPP structure, FSBM, VCEG-style QP pair).
type Config struct {
	Width, Height int
	// SearchRange is the FSBM displacement bound in full pixels; the
	// paper's "SA size" is twice this value (SA 32×32 ⇒ SearchRange 16).
	SearchRange int
	// NumRF is the number of reference frames (the DPB capacity).
	NumRF int
	// IQP and PQP are the quantization parameters for I- and P-frames;
	// the paper uses {27, 28}.
	IQP, PQP int
	// Entropy selects the residual coding backend.
	Entropy EntropyMode
	// IntraPeriod inserts an IDR (intra) frame every IntraPeriod frames,
	// flushing the reference buffer; 0 codes only the first frame intra
	// (the paper's IPPP structure).
	IntraPeriod int
	// MEAlgo selects the integer motion-search algorithm (default: the
	// paper's full search). The choice affects only encoder decisions, so
	// it is not signalled in the bitstream.
	MEAlgo me.Algorithm
	// TargetBitsPerFrame enables the reactive rate controller: the
	// inter-frame QP adapts (within [12, 51]) to steer each frame's coded
	// size toward the target. 0 keeps the paper's fixed-QP operation.
	TargetBitsPerFrame int
	// Checksum appends a CRC-32 of every reconstructed frame to the
	// bitstream, letting the decoder detect corruption (and drift bugs)
	// without access to the encoder.
	Checksum bool
	// SceneCutThreshold enables adaptive IDR insertion: when the mean
	// motion-compensated cost per pixel of a frame exceeds the threshold
	// (inter prediction has failed, e.g. at a scene change), the frame is
	// coded intra instead. 0 disables detection. Typical values: 5–15.
	SceneCutThreshold float64
	// Slices splits every frame into this many horizontal slices of
	// macroblock rows. Prediction (motion-vector and intra) never crosses
	// a slice boundary and the arithmetic backend codes each slice as an
	// independent chunk, so slices are independently decodable — the
	// standard's error-resilience mechanism. 0 or 1 keeps whole-frame
	// coding. Deblocking still filters across slice boundaries (the
	// standard's default).
	Slices int
	// Chains is the number of independent reference chains (0/1 = the
	// classic single chain). With 2 chains, inter frames alternate: the
	// first inter frame after an intra references chain 0, the next chain
	// 1, and so on — each chain holds only the shared intra seed plus its
	// own reconstructed frames, so two consecutive inter frames have no
	// data dependency and can be encoded concurrently (frame-parallel
	// mode). The chain structure is signalled in the sequence header; a
	// conforming decoder follows it exactly (both sides hold a refChains).
	Chains int
	// KernelWorkers splits each kernel dispatch of the EncodeFrame path
	// (and RunRStar's deblocking) into this many row slices executed
	// concurrently on the shared row pool. 0 or 1 keeps serial execution.
	// Results are bit-exact either way, so the setting is encoder-local
	// and not signalled in the bitstream. RunInter takes its own ways from
	// the plan, so the VCM path does not read this field.
	KernelWorkers int
}

// MaxDimension is the largest frame width or height accepted, in pixels:
// the widest picture of H.264 level 6.2. It is checked before anything
// multiplies the two, so no frame-size product downstream can overflow or
// ask for more than ~400 MB a frame.
const MaxDimension = 16384

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width > MaxDimension:
		return fmt.Errorf("codec: width %d exceeds %d", c.Width, MaxDimension)
	case c.Height > MaxDimension:
		return fmt.Errorf("codec: height %d exceeds %d", c.Height, MaxDimension)
	case c.Width <= 0 || c.Height <= 0 || c.Width%h264.MBSize != 0 || c.Height%h264.MBSize != 0:
		return fmt.Errorf("codec: frame size %dx%d must be positive multiples of %d", c.Width, c.Height, h264.MBSize)
	case c.SearchRange < 1 || c.SearchRange > h264.DefaultPad-8:
		return fmt.Errorf("codec: search range %d out of range [1,%d]", c.SearchRange, h264.DefaultPad-8)
	case c.NumRF < 1 || c.NumRF > 16:
		return fmt.Errorf("codec: NumRF %d out of range [1,16]", c.NumRF)
	case c.IQP < 0 || c.IQP > 51 || c.PQP < 0 || c.PQP > 51:
		return fmt.Errorf("codec: QP out of range [0,51]")
	case c.Entropy != EntropyVLC && c.Entropy != EntropyArith:
		return fmt.Errorf("codec: unknown entropy mode %d", c.Entropy)
	case c.IntraPeriod < 0:
		return fmt.Errorf("codec: intra period %d must be ≥ 0", c.IntraPeriod)
	case c.MEAlgo != me.FullSearch && c.MEAlgo != me.ThreeStep && c.MEAlgo != me.Diamond:
		return fmt.Errorf("codec: unknown ME algorithm %d", c.MEAlgo)
	case c.TargetBitsPerFrame < 0:
		return fmt.Errorf("codec: target bits per frame %d must be ≥ 0", c.TargetBitsPerFrame)
	case c.SceneCutThreshold < 0:
		return fmt.Errorf("codec: scene-cut threshold %v must be ≥ 0", c.SceneCutThreshold)
	case c.Slices < 0 || c.Slices > c.Height/h264.MBSize:
		return fmt.Errorf("codec: %d slices for %d macroblock rows", c.Slices, c.Height/h264.MBSize)
	case c.Chains < 0 || c.Chains > 2:
		return fmt.Errorf("codec: %d reference chains out of range [0,2]", c.Chains)
	case c.KernelWorkers < 0 || c.KernelWorkers > 64:
		return fmt.Errorf("codec: %d kernel workers out of range [0,64]", c.KernelWorkers)
	}
	return nil
}

// chains normalizes the Chains field (0 means 1).
func (c Config) chains() int {
	if c.Chains <= 1 {
		return 1
	}
	return c.Chains
}

// MBRows returns N, the number of macroblock rows distributed by the load
// balancer.
func (c Config) MBRows() int { return c.Height / h264.MBSize }

// sliceCount normalizes the Slices field (0 means 1).
func (c Config) sliceCount() int {
	if c.Slices <= 1 {
		return 1
	}
	return c.Slices
}

// sliceStarts returns the first macroblock row of each of k balanced
// horizontal slices of a rows-tall frame.
func sliceStarts(rows, k int) []int {
	starts := make([]int, k)
	base, rem := rows/k, rows%k
	acc := 0
	for i := 0; i < k; i++ {
		starts[i] = acc
		acc += base
		if i < rem {
			acc++
		}
	}
	return starts
}

// sliceTopRow returns the first row of the slice containing row mby.
func sliceTopRow(starts []int, mby int) int {
	top := 0
	for _, st := range starts {
		if st <= mby {
			top = st
		}
	}
	return top
}

// sliceIndex returns the index of the slice containing row mby.
func sliceIndex(starts []int, mby int) int {
	idx := 0
	for i, st := range starts {
		if st <= mby {
			idx = i
		}
	}
	return idx
}

// MECfg returns the motion-estimation parameters.
func (c Config) MECfg() me.Config { return me.Config{SearchRange: c.SearchRange} }

// FrameJob carries the intermediate state of one inter-frame through the
// pipeline stages. The buffers correspond exactly to the paper's CF, MV
// (from ME), MV (from SME) and the newly interpolated part of the SF.
//
// A job belongs to its encoder, one per reference chain: BeginFrameOn hands
// out the chain's job again, so a job is valid until the next frame is begun
// on its chain and one that is abandoned (a deadline retry, the second frame
// of a pair behind a scene cut) costs nothing.
type FrameJob struct {
	CF    *h264.Frame
	ME    *h264.MVField    // integer-pel FSBM output
	SME   *h264.MVField    // quarter-pel refined output
	NewSF *interp.SubFrame // SF of the most recent reference, filled by INT
	// Chain is the reference chain this frame predicts from and
	// reconstructs into (always 0 with a single chain).
	Chain int

	// intComplete: CompleteINT ran, NewSF belongs to the reference chains.
	intComplete bool
	enc         *Encoder
	// The job's row-sliceable stages as pool kernels; they live here so
	// that batching a frame's stages allocates nothing.
	me, interp, sme, borders stageRows
}

// stageRows is one row-sliceable stage of a job.
type stageRows struct {
	job *FrameJob
	run func(e *Encoder, job *FrameJob, lo, hi int)
}

// RunRows implements h264.RowKernel.
func (k *stageRows) RunRows(lo, hi int) { k.run(k.job.enc, k.job, lo, hi) }

// partForBlock returns the partition index (within the decided mode) that
// covers 4×4 block (bx, by) of the macroblock.
func partForBlock(mode h264.PartMode, bx, by int) int {
	w, h := mode.Size()
	return (by*4/h)*(h264.MBSize/w) + bx*4/w
}

// blockSink abstracts where residual blocks are coded to: the main VLC
// bitstream or a per-frame arithmetic chunk.
type blockSink interface {
	writeBlock(blk *[16]int32)
}

type vlcSink struct{ w *entropy.BitWriter }

func (s vlcSink) writeBlock(b *[16]int32) { s.w.WriteBlock4x4(b) }

type arithSink struct {
	e  *entropy.ArithEncoder
	rc *entropy.ResidualContexts
}

func (s arithSink) writeBlock(b *[16]int32) { s.rc.EncodeBlock4x4(s.e, b) }

// blockSource is the decoding counterpart of blockSink.
type blockSource interface {
	readBlock(blk *[16]int32) error
}

type vlcSource struct{ r *entropy.BitReader }

func (s vlcSource) readBlock(b *[16]int32) error { return s.r.ReadBlock4x4(b) }

type arithSource struct {
	d  *entropy.ArithDecoder
	rc *entropy.ResidualContexts
	// dead marks the source as corrupt: once block syntax breaks, the
	// rest of the slice cannot be trusted.
	dead *bool
	// conceal, when non-nil, enables error concealment: corrupt blocks
	// are replaced by zero residual (prediction still applies) and the
	// counter records the first failure per slice.
	conceal *int
}

func (s arithSource) readBlock(b *[16]int32) error {
	if *s.dead {
		*b = [16]int32{}
		if s.conceal != nil {
			return nil
		}
		return fmt.Errorf("%w: corrupt arithmetic residual", ErrBadStream)
	}
	if !s.rc.DecodeBlock4x4(s.d, b) {
		*s.dead = true
		*b = [16]int32{}
		if s.conceal != nil {
			*s.conceal++
			return nil
		}
		return fmt.Errorf("%w: corrupt arithmetic residual", ErrBadStream)
	}
	return nil
}

// reconCRC hashes the reconstructed frame — the CRC-32 of its packed I420
// bytes, taken row by row — for the optional per-frame integrity trailer.
func reconCRC(f *h264.Frame) uint32 {
	var crc uint32
	for _, p := range planes(f) {
		for y := 0; y < p.H; y++ {
			crc = crc32.Update(crc, crc32.IEEETable, p.Row(y))
		}
	}
	return crc
}

// writeSequenceHeader emits the stream preamble.
func writeSequenceHeader(w *entropy.BitWriter, cfg Config) {
	for _, b := range Magic {
		w.WriteBits(uint32(b), 8)
	}
	w.WriteUE(uint32(cfg.Width / h264.MBSize))
	w.WriteUE(uint32(cfg.Height / h264.MBSize))
	w.WriteUE(uint32(cfg.SearchRange))
	w.WriteUE(uint32(cfg.NumRF))
	w.WriteUE(uint32(cfg.IQP))
	w.WriteUE(uint32(cfg.PQP))
	w.WriteUE(uint32(cfg.Entropy))
	w.WriteUE(uint32(cfg.sliceCount()))
	if cfg.Checksum {
		w.WriteUE(1)
	} else {
		w.WriteUE(0)
	}
	w.WriteUE(uint32(cfg.chains()))
	w.AlignByte()
}

// SequenceHeaderLen returns the byte length of the sequence header
// writeSequenceHeader emits for cfg. Every shard of a GOP-sharded encode
// writes its own identical copy of the header (each shard encoder starts a
// fresh stream); a reassembler keeps shard 0 whole and strips this many
// leading bytes from every later shard before concatenating. The header is
// byte-aligned, as is every frame payload, so the splice points land on
// byte boundaries.
func SequenceHeaderLen(cfg Config) int {
	w := entropy.NewBitWriter()
	writeSequenceHeader(w, cfg)
	return len(w.Bytes())
}

// readSequenceHeader parses the stream preamble.
func readSequenceHeader(r *entropy.BitReader) (Config, error) {
	var cfg Config
	for _, want := range Magic {
		b, err := r.ReadBits(8)
		if err != nil {
			return cfg, err
		}
		if byte(b) != want {
			return cfg, ErrBadStream
		}
	}
	vals := make([]uint32, 10)
	for i := range vals {
		v, err := r.ReadUE()
		if err != nil {
			return cfg, err
		}
		vals[i] = v
	}
	r.AlignByte()
	cfg = Config{
		Width:       int(vals[0]) * h264.MBSize,
		Height:      int(vals[1]) * h264.MBSize,
		SearchRange: int(vals[2]),
		NumRF:       int(vals[3]),
		IQP:         int(vals[4]),
		PQP:         int(vals[5]),
		Entropy:     EntropyMode(vals[6]),
		Slices:      int(vals[7]),
		Checksum:    vals[8] == 1,
		Chains:      int(vals[9]),
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	return cfg, nil
}
