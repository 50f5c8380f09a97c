// Package serve is the multi-tenant encode service of the FEVES
// reproduction: a bounded job queue with admission control in front of a
// device pool (internal/pool) that leases disjoint device subsets to
// concurrent encode/simulate sessions. Each session runs its own
// framework (Algorithm 1) on its lease, re-targets onto re-partitioned
// subsets at frame boundaries, stops between frames on cancellation, and
// streams per-frame results; shutdown drains gracefully — in-flight jobs
// finish while new submissions are rejected.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/pool"
	"feves/internal/session"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

// ErrBusy is returned by Submit when the backlog is full — the service's
// backpressure signal (HTTP 503 with Retry-After).
var ErrBusy = errors.New("serve: job queue full")

// ErrDraining is returned by Submit after shutdown began: in-flight work
// finishes, new work is rejected.
var ErrDraining = errors.New("serve: server draining")

// Config configures a Server.
type Config struct {
	// Platform is the shared physical platform the pool partitions.
	Platform *device.Platform
	// MaxSessions caps concurrently running sessions; 0 or anything above
	// the device count clamps to the pool capacity (disjoint non-empty
	// leases need one device per session).
	MaxSessions int
	// QueueDepth bounds the admitted-but-not-running backlog (default 16).
	// A full queue rejects submissions with ErrBusy.
	QueueDepth int
	// CheckSchedules validates every executed frame's schedule in observe
	// mode: violations increment feves_check_violations_total instead of
	// failing the tenant's session.
	CheckSchedules bool
	// Telemetry is the shared observability sink for every session
	// (metrics aggregate across tenants); nil disables the hooks.
	Telemetry *telemetry.Telemetry
	// DeadlineSlack arms fault tolerance in every session: per-sync-point
	// deadlines at the LP-predicted timeline times this factor, device
	// health tracking, bounded frame retries, and — on exclusion — pool
	// re-partitioning so all tenants absorb the shrunk platform at their
	// next frame boundary. 0 disables failover entirely (byte-identical
	// schedules to a slack-less server).
	DeadlineSlack float64
	// MaxFrameRetries bounds per-frame failover attempts per session
	// (default 3); meaningful only with DeadlineSlack > 0.
	MaxFrameRetries int
	// FaultSpec injects deterministic faults into the shared platform
	// (grammar of device.ParseFaults, e.g. "die:GPU_F@40"); empty runs
	// fault-free. Fault frames are interpreted per session-local frame
	// counter.
	FaultSpec string
}

// Server is the multi-tenant encode service.
type Server struct {
	cfg   Config
	pool  *pool.Pool
	queue chan *Job
	slots chan struct{}

	baseCtx context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	draining bool
	active   map[string]*sessionRef // running sessions by job id

	inflight sync.WaitGroup // accepted jobs not yet terminal
	loopDone chan struct{}
}

// New builds a server and starts its scheduler.
func New(cfg Config) (*Server, error) {
	if cfg.FaultSpec != "" && cfg.Platform != nil {
		fp, err := device.ParseFaults(cfg.FaultSpec, cfg.Platform)
		if err != nil {
			return nil, err
		}
		cfg.Platform.Faults = fp // inherited by every lease subplatform
	}
	p, err := pool.New(cfg.Platform)
	if err != nil {
		return nil, err
	}
	maxSessions := cfg.MaxSessions
	if maxSessions <= 0 || maxSessions > p.Capacity() {
		maxSessions = p.Capacity()
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		pool:     p,
		queue:    make(chan *Job, depth),
		slots:    make(chan struct{}, maxSessions),
		baseCtx:  ctx,
		stop:     cancel,
		jobs:     map[string]*Job{},
		active:   map[string]*sessionRef{},
		loopDone: make(chan struct{}),
	}
	go s.schedule()
	return s, nil
}

// Pool exposes the device pool (for introspection and tests).
func (s *Server) Pool() *pool.Pool { return s.pool }

// Submit admits a job. It fails fast with ErrDraining after shutdown
// began, ErrBusy when the backlog is full, or a validation error for a
// malformed spec.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	job := newJob(fmt.Sprintf("job-%d", s.seq), spec, s.baseCtx)
	select {
	case s.queue <- job:
	default:
		return nil, ErrBusy
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.inflight.Add(1)
	s.metric("feves_serve_jobs_total", "Jobs accepted by the serving layer.", "mode", spec.Mode).Inc()
	return job, nil
}

// Job returns a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueDepth returns the backlog capacity.
func (s *Server) QueueDepth() int { return cap(s.queue) }

// Drain stops admission (Submit returns ErrDraining) and waits for every
// accepted job to reach a terminal state. If ctx expires first, the
// remaining sessions are cancelled — they stop at the next frame
// boundary — and Drain waits for them to wind down before returning the
// context's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop() // cancels every session between frames
		<-done
		return ctx.Err()
	}
}

// Close shuts the server down immediately: admission stops, running
// sessions are cancelled at the next frame boundary, and the scheduler
// exits. Use Drain first for a graceful stop.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stop()
	<-s.loopDone
}

// metric is a nil-safe registry accessor.
func (s *Server) metric(name, help string, labels ...string) *telemetry.Counter {
	if s.cfg.Telemetry == nil || s.cfg.Telemetry.Metrics == nil {
		return &telemetry.Counter{}
	}
	return s.cfg.Telemetry.Metrics.Counter(name, help, labels...)
}

func (s *Server) gauge(name, help string) *telemetry.Gauge {
	if s.cfg.Telemetry == nil || s.cfg.Telemetry.Metrics == nil {
		return &telemetry.Gauge{}
	}
	return s.cfg.Telemetry.Metrics.Gauge(name, help)
}

// schedule is the admission loop: it pairs each queued job with a
// session slot and a device lease, then runs the session. Slots cap the
// concurrency at or below the pool capacity and a session releases its
// lease before its slot, so a free slot implies an available lease.
func (s *Server) schedule() {
	defer close(s.loopDone)
	for {
		var job *Job
		select {
		case <-s.baseCtx.Done():
			s.failQueued()
			return
		case job = <-s.queue:
		}
		if job.ctx.Err() != nil { // cancelled while queued
			job.finish(StatusCanceled, "canceled while queued", nil)
			s.inflight.Done()
			continue
		}
		select {
		case <-s.baseCtx.Done():
			job.finish(StatusCanceled, "server shut down", nil)
			s.inflight.Done()
			s.failQueued()
			return
		case s.slots <- struct{}{}:
		}
		lease, err := s.pool.Acquire(job.spec.Workload())
		if err != nil {
			// Slot accounting makes exhaustion impossible; anything else
			// is a spec/platform mismatch and fails just this job.
			<-s.slots
			job.finish(StatusFailed, err.Error(), nil)
			s.inflight.Done()
			continue
		}
		go s.run(job, lease)
	}
}

// failQueued cancels everything still sitting in the backlog at
// shutdown.
func (s *Server) failQueued() {
	for {
		select {
		case job := <-s.queue:
			job.finish(StatusCanceled, "server shut down", nil)
			s.inflight.Done()
		default:
			return
		}
	}
}

// run executes one session over its lease.
func (s *Server) run(job *Job, lease *pool.Lease) {
	active := s.gauge("feves_serve_sessions_active", "Sessions currently holding a device lease.")
	active.Add(1)
	defer func() {
		lease.Release()
		<-s.slots
		active.Add(-1)
		s.inflight.Done()
	}()

	st, errMsg, stream := s.runSession(job, lease)
	job.finish(st, errMsg, stream)
	s.metric("feves_serve_jobs_finished_total", "Jobs finished by terminal status.",
		"status", string(st)).Inc()
}

// runSession runs the job on the shared session driver, which re-targets
// the platform when the pool re-partitioned and fails over through the
// pool; what stays here is the job's: cancellation between windows, the
// per-frame result stream and the serve-named metrics. Every telemetry
// record of the session carries the job id as its causal session label
// (minted at submission), so events, metrics, trace lanes and
// flight-recorder entries attribute to the tenant.
func (s *Server) runSession(job *Job, lease *pool.Lease) (Status, string, []byte) {
	spec := job.spec
	mode := vcm.TimingOnly
	if spec.Mode == ModeEncode {
		mode = vcm.Functional
	}
	drv, err := session.New(core.Options{
		Codec:           spec.CodecConfig(),
		Mode:            mode,
		Telemetry:       s.cfg.Telemetry.ForSession(job.id),
		CheckSchedules:  s.cfg.CheckSchedules,
		CheckObserve:    true,
		DeadlineSlack:   s.cfg.DeadlineSlack,
		MaxFrameRetries: s.cfg.MaxFrameRetries,
		FrameParallel:   spec.FrameParallel,
		FrameBase:       spec.FrameBase,
	}, lease, session.Hooks{
		DeviceLost: func() {
			s.metric("feves_serve_devices_lost_total",
				"Devices removed from the pool after a session excluded them.").Inc()
		},
		Repartitioned: func() {
			s.metric("feves_serve_repartitions_total",
				"Lease changes picked up by sessions at frame boundaries.").Inc()
		},
	})
	if err != nil {
		return StatusFailed, err.Error(), nil
	}
	s.trackSession(job, lease, drv.Framework())
	defer s.untrackSession(job.id)
	job.start(drv.Devices())

	i, frames, fb := 0, spec.FrameCount(), spec.frameBytes()
	err = drv.Run(func() (yuv []byte, err error) {
		switch {
		case job.ctx.Err() != nil:
			return nil, job.ctx.Err()
		case i == frames:
			return nil, io.EOF
		case mode == vcm.Functional:
			yuv = spec.YUV[i*fb : (i+1)*fb]
		}
		i++
		return yuv, nil
	}, func(r core.Result) {
		job.appendResult(FrameResult{
			Frame: r.FrameIndex, Attempt: r.Attempt, Intra: r.IsIntra(),
			Chain:            r.Timing.Chain,
			Seconds:          r.Timing.Tot,
			PairSeconds:      r.Timing.PairMakespan,
			FPS:              r.FPS(),
			PredictedSeconds: r.Distribution.PredTot,
			SchedOverhead:    r.SchedOverhead.Seconds(),
			Bits:             r.Stats.Bits, PSNRY: r.Stats.PSNRY,
			Devices: drv.Devices(),
		})
	})
	switch {
	case errors.Is(err, context.Canceled):
		return StatusCanceled, "canceled", nil
	case err != nil:
		return StatusFailed, err.Error(), nil
	}
	return StatusDone, "", drv.Framework().Bitstream()
}

// sessionRef tracks one running session for live introspection.
type sessionRef struct {
	job   *Job
	lease *pool.Lease
	fw    *core.Framework
}

func (s *Server) trackSession(job *Job, lease *pool.Lease, fw *core.Framework) {
	s.mu.Lock()
	s.active[job.id] = &sessionRef{job: job, lease: lease, fw: fw}
	s.mu.Unlock()
}

func (s *Server) untrackSession(id string) {
	s.mu.Lock()
	delete(s.active, id)
	s.mu.Unlock()
}

// SessionState describes one running session for /debug/state.
type SessionState struct {
	Job     string   `json:"job"`
	Name    string   `json:"name,omitempty"`
	Mode    string   `json:"mode"`
	Lease   int      `json:"lease"`
	Epoch   uint64   `json:"epoch"`
	Devices []string `json:"devices"`
	// Health names each lease device's failover state (nil while
	// DeadlineSlack is 0).
	Health []string `json:"health,omitempty"`
	// Frames/Completed mirror the job status document.
	Frames    int `json:"frames"`
	Completed int `json:"completed"`
	Retries   int `json:"retries,omitempty"`
}

// State is the live introspection document served at /debug/state: pool
// topology and leases, per-session health, queue depth and drain status.
type State struct {
	Draining    bool `json:"draining"`
	QueueLen    int  `json:"queue_len"`
	QueueCap    int  `json:"queue_cap"`
	MaxSessions int  `json:"max_sessions"`
	// Load is the summed remaining row·frame weight of every queued and
	// running job — the queue-aware figure the fleet router sheds on.
	Load     float64        `json:"load"`
	Pool     pool.State     `json:"pool"`
	Sessions []SessionState `json:"sessions"`
}

// State snapshots the server for the debug endpoint. Safe to call while
// sessions encode.
func (s *Server) State() State {
	s.mu.Lock()
	draining := s.draining
	refs := make([]*sessionRef, 0, len(s.active))
	for _, ref := range s.active {
		refs = append(refs, ref)
	}
	s.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].job.id < refs[j].job.id })
	st := State{
		Draining:    draining,
		QueueLen:    len(s.queue),
		QueueCap:    cap(s.queue),
		MaxSessions: cap(s.slots),
		Load:        s.Load(),
		Pool:        s.pool.State(),
	}
	for _, ref := range refs {
		js := ref.job.Status()
		ss := SessionState{
			Job: ref.job.id, Name: js.Name, Mode: js.Mode,
			Lease:   ref.lease.ID(),
			Devices: js.Devices,
			Frames:  js.Frames, Completed: js.Completed,
			Health:  ref.fw.HealthStates(),
			Retries: ref.fw.FrameRetries(),
		}
		_, ss.Epoch = ref.lease.Snapshot()
		st.Sessions = append(st.Sessions, ss)
	}
	return st
}

// WaitAll blocks until every currently accepted job is terminal or the
// timeout elapses (testing convenience).
func (s *Server) WaitAll(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}
