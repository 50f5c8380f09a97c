package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264/codec"
	"feves/internal/session"
)

// Mode names the two job kinds.
const (
	ModeSimulate = "simulate"
	ModeEncode   = "encode"
)

// JobSpec describes one encode or simulate job. The zero values of the
// optional coding parameters select the paper's evaluation configuration
// (SA 32×32, 1 RF, QP {27, 28}).
type JobSpec struct {
	// Name is an optional caller label echoed in status output.
	Name string `json:"name,omitempty"`
	// Mode is "simulate" (timing-only, any resolution, no input needed)
	// or "encode" (functional coding of the supplied YUV frames).
	Mode string `json:"mode"`
	// Width and Height are the frame dimensions in pixels (multiples of 16).
	Width  int `json:"width"`
	Height int `json:"height"`
	// Frames is the number of frames to simulate (including the leading
	// intra frame). Ignored for encode jobs, whose frame count follows
	// from len(YUV).
	Frames int `json:"frames,omitempty"`
	// SearchArea is the SA size in pixels (0 = the paper's 32).
	SearchArea int `json:"search_area,omitempty"`
	// RefFrames is the reference-frame count (0 = 1).
	RefFrames int `json:"ref_frames,omitempty"`
	// IQP/PQP are the quantization parameters (0 = the paper's 27/28).
	IQP int `json:"iqp,omitempty"`
	PQP int `json:"pqp,omitempty"`
	// IntraPeriod inserts an IDR every IntraPeriod frames (0 = IPPP).
	IntraPeriod int `json:"intra_period,omitempty"`
	// SceneCutThreshold enables the codec's adaptive IDR insertion: frames
	// whose mean motion-compensated cost per pixel exceeds it are coded
	// intra (0 disables detection; see codec.Config.SceneCutThreshold).
	SceneCutThreshold float64 `json:"scene_cut_threshold,omitempty"`
	// FrameBase offsets the session's display frame numbering: frame i of
	// the input runs as global frame FrameBase+i — intra cadence, jitter
	// identity, telemetry and results all use the global index. The fleet
	// layer shards one stream into GOP runs and gives each shard session
	// its global numbering this way. Non-zero values require IntraPeriod >
	// 0 with FrameBase a multiple of it, so the shard opens on an IDR.
	FrameBase int `json:"frame_base,omitempty"`
	// FrameParallel runs the session with two inter frames in flight over
	// dual reference chains (see feves.Config.FrameParallel). Encode jobs
	// produce the two-chain bitstream; simulate jobs report the paired
	// throughput.
	FrameParallel bool `json:"frame_parallel,omitempty"`
	// YUV holds the concatenated packed I420 frames of an encode job
	// (base64 in JSON).
	YUV []byte `json:"yuv,omitempty"`
}

// MaxFrames bounds the frames of one job or stream — ten hours of 30 fps
// video. A simulate spec costs nothing to write, so without a ceiling
// "frames": 1<<40 would hold a session slot for years and grow the job's
// result list without end.
const MaxFrames = 1 << 20

func (sp JobSpec) withDefaults() JobSpec {
	session.PaperDefaults(&sp.SearchArea, &sp.RefFrames, &sp.IQP, &sp.PQP)
	return sp
}

// frameBytes is the packed I420 size of one frame.
func (sp JobSpec) frameBytes() int { return sp.Width * sp.Height * 3 / 2 }

// FrameCount returns the number of frames the job will process.
func (sp JobSpec) FrameCount() int {
	if sp.Mode == ModeEncode {
		if fb := sp.frameBytes(); fb > 0 {
			return len(sp.YUV) / fb
		}
		return 0
	}
	return sp.Frames
}

func (sp JobSpec) validate() error {
	if sp.Mode != ModeSimulate && sp.Mode != ModeEncode {
		return fmt.Errorf("serve: mode %q must be %q or %q", sp.Mode, ModeSimulate, ModeEncode)
	}
	// The codec bounds width and height; only past this check is
	// frameBytes known to be positive and free of overflow.
	if err := sp.CodecConfig().Validate(); err != nil {
		return err
	}
	if sp.FrameBase != 0 {
		if sp.FrameBase < 0 || sp.IntraPeriod <= 0 || sp.FrameBase%sp.IntraPeriod != 0 {
			return fmt.Errorf("serve: frame base %d must be a non-negative multiple of a non-zero intra period (have %d)",
				sp.FrameBase, sp.IntraPeriod)
		}
	}
	if sp.Mode == ModeSimulate {
		if sp.Frames < 1 {
			return fmt.Errorf("serve: simulate job needs frames >= 1")
		}
		if len(sp.YUV) > 0 {
			return fmt.Errorf("serve: simulate job must not carry YUV input")
		}
	} else {
		if len(sp.YUV) == 0 || len(sp.YUV)%sp.frameBytes() != 0 {
			return fmt.Errorf("serve: encode job needs YUV input in whole %d-byte frames, got %d bytes",
				sp.frameBytes(), len(sp.YUV))
		}
	}
	if n := sp.FrameCount(); n > MaxFrames {
		return fmt.Errorf("serve: frames %d exceeds %d", n, MaxFrames)
	}
	return nil
}

// Validate checks the spec exactly as Submit would without admitting it.
// The fleet layer validates a whole stream this way before splitting it
// into per-shard jobs, so a malformed stream is rejected before any node
// accepts work.
func (sp JobSpec) Validate() error { return sp.withDefaults().validate() }

// CodecConfig is the coding configuration the job's session runs with,
// the optional parameters defaulted. Together with Workload and FrameCount
// it is the one normalisation of a spec: the fleet layer routes, shards
// and reassembles by these same values.
func (sp JobSpec) CodecConfig() codec.Config {
	sp = sp.withDefaults()
	chains := 1
	if sp.FrameParallel {
		chains = 2
	}
	return codec.Config{
		Width: sp.Width, Height: sp.Height,
		SearchRange: sp.SearchArea / 2,
		NumRF:       sp.RefFrames,
		IQP:         sp.IQP, PQP: sp.PQP,
		IntraPeriod:       sp.IntraPeriod,
		SceneCutThreshold: sp.SceneCutThreshold,
		Chains:            chains,
	}
}

// Workload is the standing demand handed to the pool partitioner, the
// optional parameters defaulted.
func (sp JobSpec) Workload() device.Workload { return core.Workload(sp.CodecConfig()) }

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether the state is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// FrameResult is the per-frame record streamed to clients, one JSONL line
// each.
type FrameResult struct {
	Frame int `json:"frame"`
	// Attempt is the successful failover attempt index (omitted for
	// first-try frames).
	Attempt int  `json:"attempt,omitempty"`
	Intra   bool `json:"intra"`
	// Chain is the reference chain the frame predicted from (omitted on
	// single-chain jobs).
	Chain int `json:"chain,omitempty"`
	// Seconds is the simulated inter-loop time τtot (0 for intra frames).
	Seconds float64 `json:"tau_tot"`
	// PairSeconds is the joint makespan of the two-frame group this frame
	// ran in (omitted for serial frames); paired FPS is 2/PairSeconds.
	PairSeconds float64 `json:"pair_seconds,omitempty"`
	FPS         float64 `json:"fps,omitempty"`
	// PredictedSeconds is the per-frame LP's τtot prediction (0 for the
	// re-characterization frames after a lease change).
	PredictedSeconds float64 `json:"pred_tau_tot,omitempty"`
	SchedOverhead    float64 `json:"sched_overhead,omitempty"`
	Bits             int     `json:"bits,omitempty"`
	PSNRY            float64 `json:"psnr_y,omitempty"`
	// Devices names the leased devices that encoded this frame; it changes
	// when the pool re-partitions on tenant arrival or departure.
	Devices []string `json:"devices"`
}

// JobStatus is the status document served for one job.
type JobStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	Mode   string `json:"mode"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	// Frames is the total frame count; Completed how many finished so far.
	Frames    int `json:"frames"`
	Completed int `json:"completed"`
	// Devices is the session's current lease (empty while queued).
	Devices   []string   `json:"devices,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// Job is one submitted unit of work and its accumulated results.
type Job struct {
	id   string
	spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	status    Status
	errMsg    string
	results   []FrameResult
	bitstream []byte
	devices   []string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func newJob(id string, spec JobSpec, parent context.Context) *Job {
	ctx, cancel := context.WithCancel(parent)
	j := &Job{id: id, spec: spec, ctx: ctx, cancel: cancel,
		status: StatusQueued, submitted: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted specification.
func (j *Job) Spec() JobSpec { return j.spec }

// Cancel requests cancellation: a queued job is dropped, a running
// session stops between frames.
func (j *Job) Cancel() { j.cancel() }

// remainingWeight is the job's outstanding routing weight — frame rows ×
// frames not yet completed, the row·frame yardstick the fleet router
// balances with — shrinking as results stream and zero once terminal.
func (j *Job) remainingWeight() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return 0
	}
	rem := j.spec.FrameCount() - len(j.results)
	if rem <= 0 {
		return 0
	}
	return float64(j.spec.Workload().Rows()) * float64(rem)
}

// Status returns the job's current status document.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Name: j.spec.Name, Mode: j.spec.Mode,
		Status: j.status, Error: j.errMsg,
		Frames: j.spec.FrameCount(), Completed: len(j.results),
		Devices:   append([]string(nil), j.devices...),
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Bitstream returns the coded stream of a finished encode job (nil
// otherwise).
func (j *Job) Bitstream() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusDone {
		return nil
	}
	return j.bitstream
}

// Next blocks until result index n exists or the job reaches a terminal
// state, then returns every result from n on and whether the job is
// finished. Streaming consumers call it in a loop.
func (j *Job) Next(n int) (results []FrameResult, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.results) <= n && !j.status.terminal() {
		j.cond.Wait()
	}
	if n < len(j.results) {
		results = append(results, j.results[n:]...)
	}
	return results, j.status.terminal() && n+len(results) == len(j.results)
}

// Wait blocks until the job reaches a terminal state and returns it.
func (j *Job) Wait() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.status.terminal() {
		j.cond.Wait()
	}
	return j.status
}

// Results returns a copy of the per-frame results so far.
func (j *Job) Results() []FrameResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]FrameResult(nil), j.results...)
}

func (j *Job) start(devices []string) {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.devices = devices
	j.mu.Unlock()
	j.cond.Broadcast()
}

func (j *Job) appendResult(r FrameResult) {
	j.mu.Lock()
	j.results = append(j.results, r)
	j.devices = r.Devices
	j.mu.Unlock()
	j.cond.Broadcast()
}

func (j *Job) finish(st Status, errMsg string, bitstream []byte) {
	j.cancel() // release the context's resources in every path
	j.mu.Lock()
	if j.status.terminal() {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.errMsg = errMsg
	j.bitstream = bitstream
	j.finished = time.Now()
	j.mu.Unlock()
	j.cond.Broadcast()
}
