package codec

import (
	"fmt"

	"feves/internal/h264"
	"feves/internal/h264/entropy"
	"feves/internal/h264/interp"
	"feves/internal/h264/me"
	"feves/internal/h264/rd"
	"feves/internal/h264/sme"
)

// Encoder is the stateful sequence encoder. It owns the reference chains
// (the state its decoder reproduces) and the output bitstream writer.
type Encoder struct {
	cfg       Config
	w         *entropy.BitWriter
	refs      *refChains
	frames    int
	lastRecon *h264.Frame
	rc        *RateControl // nil when rate control is off
}

// NewEncoder creates an encoder and writes the sequence header.
func NewEncoder(cfg Config) (*Encoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{
		cfg:  cfg,
		w:    entropy.NewBitWriter(),
		refs: newRefChains(cfg.chains(), cfg.NumRF),
	}
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
	batch := make([]h264.RowTask, 0, len(plan.ME)+len(plan.INT))
	batch = appendTasks(batch, func(lo, hi int) { e.RunME(job, lo, hi) }, plan.ME)
	batch = appendTasks(batch, func(lo, hi int) { e.RunINT(job, lo, hi) }, plan.INT)
	h264.ParallelBatch(batch, plan.Ways)
	e.CompleteINT(job)
	batch = appendTasks(batch[:0], func(lo, hi int) { e.RunSME(job, lo, hi) }, plan.SME)
	h264.ParallelBatch(batch, plan.Ways)
	return e.runRStar(job, plan.Ways)
}

// appendTasks appends one task of kernel k per row range.
func appendTasks(batch []h264.RowTask, k h264.RowFunc, ranges []RowRange) []h264.RowTask {
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

// BeginFrame allocates the working buffers of one inter-frame on the
// serial path's next chain (round-robin with two chains). The chain's DPB
// must hold at least one reference (i.e. the intra frame was already
// encoded).
func (e *Encoder) BeginFrame(cf *h264.Frame) *FrameJob {
	return e.BeginFrameOn(cf, e.refs.next())
}

// BeginFrameOn opens an inter-frame on an explicit reference chain — the
// frame-parallel path, where the caller pipelines two frames on the two
// chains and the serial round-robin assignment (which only advances when a
// frame *completes*) would hand both in-flight frames the same chain.
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
	return &FrameJob{
		CF:    cf,
		ME:    h264.NewMVField(cf.MBWidth(), cf.MBHeight(), e.cfg.NumRF),
		SME:   h264.NewMVField(cf.MBWidth(), cf.MBHeight(), e.cfg.NumRF),
		NewSF: interp.NewSubFrame(cf.W, cf.H),
		Chain: chain,
	}
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
// borders and installs it as the sub-frame of the chain's reference 0,
// making the full SF structure available to SME on every device.
func (e *Encoder) CompleteINT(job *FrameJob) {
	if job.intComplete {
		panic("codec: CompleteINT called twice")
	}
	job.NewSF.ExtendBorders()
	e.refs.installSF(job.Chain, job.NewSF)
	job.intComplete = true
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
// frame a conforming decoder must reproduce bit-exactly.
func (e *Encoder) LastRecon() *h264.Frame { return e.lastRecon }
