package codec

import (
	"fmt"

	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/mc"
	"feves/internal/h264/me"
	"feves/internal/h264/rd"
	"feves/internal/h264/sme"
)

// Encoder is the stateful sequence encoder. It owns the reference chains
// (the state its decoder reproduces), the output bitstream writer and the
// working set of a frame: every buffer a frame needs is either in a chain,
// in a job, in the free list or in the R* scratch, and a steady-state inter
// frame allocates none (DESIGN.md, "Who owns a frame's buffers").
type Encoder struct {
	cfg       Config
	w         *entropy.BitWriter
	refs      *refChains
	frames    int
	lastRecon *h264.Frame
	rc        *RateControl // nil when rate control is off

	// free is what the chains evicted; jobs is one job per chain.
	free freeList
	jobs []FrameJob
	// R* scratch, overwritten by every frame.
	dec    mc.Decision
	bi     *deblock.BlockInfo
	repMV  []h264.MV
	starts []int // first macroblock row of each slice, then the row count
	slices []sliceCoder
	pass   slicePass
	batch  []h264.RowTask

	// poison fills every buffer about to be reused with values no encode
	// produces, so a test sees a read of a stale byte as a changed stream.
	poison bool
}

// NewEncoder creates an encoder and writes the sequence header.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{
		cfg:    cfg,
		w:      entropy.NewBitWriter(),
		refs:   newRefChains(cfg.chains(), cfg.NumRF),
		jobs:   make([]FrameJob, cfg.chains()),
		starts: append(sliceStarts(cfg.MBRows(), cfg.sliceCount()), cfg.MBRows()),
	}
	e.slices = newSliceCoders(cfg.Entropy, len(e.starts)-1)
	if cfg.TargetBitsPerFrame > 0 {
		rc, err := NewRateControl(cfg.TargetBitsPerFrame, cfg.PQP, 12, 51)
		if err != nil {
			return nil, err
		}
		e.rc = rc
	}
	writeSequenceHeader(e.w, cfg)
	return e, nil
}

// frameQP returns the inter-frame QP to use next: the rate controller's
// choice when enabled, the fixed sequence PQP otherwise.
func (e *Encoder) frameQP() int {
	if e.rc != nil {
		return e.rc.QP()
	}
	return e.cfg.PQP
}

// Config returns the sequence parameters.
func (e *Encoder) Config() Config { return e.cfg }

// Bitstream flushes and returns the coded stream so far.
func (e *Encoder) Bitstream() []byte { return e.w.Bytes() }

// BitsWritten returns the number of coded bits so far.
func (e *Encoder) BitsWritten() int { return e.w.Len() }

// FramesEncoded returns the number of frames coded so far.
func (e *Encoder) FramesEncoded() int { return e.frames }

// DPBLen returns the number of reference frames available to the next
// serially encoded frame's chain — smaller than NumRF during the ramp-up
// frames of Fig. 7(b).
func (e *Encoder) DPBLen() int { return e.DPBLenOn(e.refs.next()) }

// DPBLenOn returns the number of reference frames available on one chain.
func (e *Encoder) DPBLenOn(chain int) int { return e.refs.dpb[chain].Len() }

// Chains returns the number of reference chains.
func (e *Encoder) Chains() int { return len(e.refs.dpb) }

// ShouldIntra reports whether the next frame must be intra coded: the
// first frame of a sequence, or an IDR refresh point when IntraPeriod is
// configured.
func (e *Encoder) ShouldIntra() bool {
	if e.frames == 0 {
		return true
	}
	return e.cfg.IntraPeriod > 0 && e.frames%e.cfg.IntraPeriod == 0
}

// EncodeFrame encodes one frame end to end: the first frame of a sequence
// (and each IDR refresh point) is intra coded, every other frame runs the
// inter loop over the whole frame, each kernel split KernelWorkers ways.
// This is the single-device reference path.
func (e *Encoder) EncodeFrame(cf *h264.Frame) (rd.FrameStats, error) {
	if err := e.checkFrame(cf); err != nil {
		return rd.FrameStats{}, err
	}
	if e.ShouldIntra() {
		return e.EncodeIntraFrame(cf)
	}
	whole := []RowRange{{0, e.cfg.MBRows()}}
	plan := InterPlan{ME: whole, INT: whole, SME: whole, Ways: e.cfg.KernelWorkers}
	return e.RunInter(e.BeginFrame(cf), &plan), nil
}

// RowRange is macroblock rows [Lo, Hi).
type RowRange struct{ Lo, Hi int }

// InterPlan says how one inter frame's row-sliced kernels are dispatched:
// the row ranges ME, INT and SME run over (one per device in a
// collaborative encode; together each list must cover every row exactly
// once) and Ways, the number of chunks each range is cut into on the shared
// row pool (<= 1: the ranges run one after another on the caller). Any plan
// produces the same bitstream and reconstruction.
type InterPlan struct {
	ME, INT, SME []RowRange
	Ways         int
}

// RunInter runs the inter loop of Fig. 4 on a job BeginFrame opened: the ME
// and INT ranges as one concurrent batch, the τ1 host step CompleteINT, the
// SME ranges as a second batch, then R*. This is the only place that order
// is written down; the schedule the VCM simulates decides which device a
// range is charged to, not when its rows are computed.
func (e *Encoder) RunInter(job *FrameJob, plan *InterPlan) rd.FrameStats {
	batch := appendTasks(e.batch[:0], &job.me, plan.ME)
	batch = appendTasks(batch, &job.interp, plan.INT)
	h264.ParallelBatch(batch, plan.Ways)
	e.completeINT(job, plan.Ways)
	batch = appendTasks(batch[:0], &job.sme, plan.SME)
	h264.ParallelBatch(batch, plan.Ways)
	e.batch = batch[:0]
	return e.runRStar(job, plan.Ways)
}

// appendTasks appends one task of kernel k per row range.
func appendTasks(batch []h264.RowTask, k h264.RowKernel, ranges []RowRange) []h264.RowTask {
	for _, r := range ranges {
		batch = append(batch, h264.RowTask{K: k, Lo: r.Lo, Hi: r.Hi})
	}
	return batch
}

func (e *Encoder) checkFrame(cf *h264.Frame) error {
	if cf.W != e.cfg.Width || cf.H != e.cfg.Height {
		return fmt.Errorf("codec: frame %dx%d does not match configured %dx%d",
			cf.W, cf.H, e.cfg.Width, e.cfg.Height)
	}
	return nil
}

// frame takes a reconstruction buffer from the free list, allocating only
// when the list is empty. Its samples are stale: R* writes every one.
func (e *Encoder) frame() *h264.Frame {
	n := len(e.free.frames)
	if n == 0 {
		return h264.NewFrame(e.cfg.Width, e.cfg.Height)
	}
	f := e.free.frames[n-1]
	e.free.frames = e.free.frames[:n-1]
	if e.poison {
		poisonFrame(f)
	}
	return f
}

// subFrame is frame for the sixteen planes INT fills.
func (e *Encoder) subFrame() *interp.SubFrame {
	n := len(e.free.sfs)
	if n == 0 {
		return interp.NewSubFrame(e.cfg.Width, e.cfg.Height)
	}
	sf := e.free.sfs[n-1]
	e.free.sfs = e.free.sfs[:n-1]
	if e.poison {
		poisonSubFrame(sf)
	}
	return sf
}

// field returns f, or a new motion field of the sequence's geometry when f
// is nil. ME and SME overwrite every entry of the rows they are given.
func (e *Encoder) field(f *h264.MVField) *h264.MVField {
	if f == nil {
		return h264.NewMVField(e.cfg.Width/h264.MBSize, e.cfg.MBRows(), e.cfg.NumRF)
	}
	if e.poison {
		poisonField(f)
	}
	return f
}

// BeginFrame opens one inter-frame on the serial path's next chain
// (round-robin with two chains). The chain's DPB must hold at least one
// reference (i.e. the intra frame was already encoded).
func (e *Encoder) BeginFrame(cf *h264.Frame) *FrameJob {
	return e.BeginFrameOn(cf, e.refs.next())
}

// BeginFrameOn opens an inter-frame on an explicit reference chain — the
// frame-parallel path, where the caller pipelines two frames on the two
// chains and the serial round-robin assignment (which only advances when a
// frame *completes*) would hand both in-flight frames the same chain. It
// returns the chain's job, reset for cf: an earlier job on the chain that
// never reached R* is overwritten, its buffers reused.
func (e *Encoder) BeginFrameOn(cf *h264.Frame, chain int) *FrameJob {
	if chain < 0 || chain >= e.Chains() {
		panic(fmt.Sprintf("codec: chain %d of %d", chain, e.Chains()))
	}
	if e.DPBLenOn(chain) == 0 {
		panic("codec: BeginFrame before intra frame")
	}
	if err := e.checkFrame(cf); err != nil {
		panic(err)
	}
	job := &e.jobs[chain]
	if job.enc == nil {
		*job = FrameJob{
			Chain: chain, enc: e,
			me:      stageRows{job, (*Encoder).RunME},
			interp:  stageRows{job, (*Encoder).RunINT},
			sme:     stageRows{job, (*Encoder).RunSME},
			borders: stageRows{job, (*Encoder).extendSFBorders},
		}
	}
	job.CF = cf
	job.ME, job.SME = e.field(job.ME), e.field(job.SME)
	if job.NewSF == nil || job.intComplete { // the last one went to the chain
		job.NewSF = e.subFrame()
	} else if e.poison {
		poisonSubFrame(job.NewSF)
	}
	job.intComplete = false
	return job
}

// RunME performs full-search motion estimation for macroblock rows
// [rowLo, rowHi) against every reference available on the job's chain.
// Safe to call concurrently on disjoint row ranges.
func (e *Encoder) RunME(job *FrameJob, rowLo, rowHi int) {
	me.SearchRowsAlgo(e.cfg.MEAlgo, job.CF, e.refs.dpb[job.Chain], e.cfg.MECfg(), job.ME, rowLo, rowHi)
}

// RunINT interpolates macroblock rows [rowLo, rowHi) of the chain's most
// recent reference frame into the job's new sub-frame. Safe to call
// concurrently on disjoint row ranges.
func (e *Encoder) RunINT(job *FrameJob, rowLo, rowHi int) {
	interp.InterpolateRows(e.refs.dpb[job.Chain].Ref(0).Y, job.NewSF, rowLo, rowHi)
}

// CompleteINT is the τ1 host-side step: it extends the new sub-frame's
// borders, KernelWorkers planes at a time, and installs it as the sub-frame
// of the chain's reference 0, making the full SF structure available to SME
// on every device.
func (e *Encoder) CompleteINT(job *FrameJob) { e.completeINT(job, e.cfg.KernelWorkers) }

func (e *Encoder) completeINT(job *FrameJob, ways int) {
	if job.intComplete {
		panic("codec: CompleteINT called twice")
	}
	h264.ParallelRows(&job.borders, 0, len(job.NewSF.Planes), ways)
	e.refs.installSF(job.Chain, job.NewSF)
	job.intComplete = true
}

// extendSFBorders extends the borders of planes [lo, hi) of the job's new
// sub-frame: the planes share no samples, so they are row-kernel "rows".
func (e *Encoder) extendSFBorders(job *FrameJob, lo, hi int) {
	for _, p := range job.NewSF.Planes[lo:hi] {
		p.ExtendBorder()
	}
}

// RunSME refines macroblock rows [rowLo, rowHi) on the SF structure.
// CompleteINT must have run. Safe to call concurrently on disjoint rows.
func (e *Encoder) RunSME(job *FrameJob, rowLo, rowHi int) {
	if !job.intComplete {
		panic("codec: RunSME before CompleteINT")
	}
	sme.RefineRows(job.CF, e.refs.sf[job.Chain], job.ME, job.SME, rowLo, rowHi)
}

// LastRecon returns the most recently reconstructed reference frame (the
// RF+1 buffer the paper transfers back to the host after R*). It is the
// frame a conforming decoder must reproduce bit-exactly. The frame belongs
// to the encoder, which reuses it once its chain has evicted it: read it —
// or Clone it — before the next frame on its chain (with one chain: the
// next frame; an IDR is a frame on every chain) completes.
func (e *Encoder) LastRecon() *h264.Frame { return e.lastRecon }
