package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"feves/internal/serve"
)

// StreamSpec describes one stream the fleet may shard across nodes at GOP
// boundaries. Field semantics match serve.JobSpec; IntraPeriod > 0 is what
// makes a stream shardable (every shard must open on an IDR).
type StreamSpec struct {
	Name string `json:"name,omitempty"`
	// Mode is "encode" (functional, YUV in, reassembled bitstream out) or
	// "simulate" (timing-only; Frames sets the length).
	Mode   string `json:"mode"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	Frames int    `json:"frames,omitempty"`

	SearchArea        int     `json:"search_area,omitempty"`
	RefFrames         int     `json:"ref_frames,omitempty"`
	IQP               int     `json:"iqp,omitempty"`
	PQP               int     `json:"pqp,omitempty"`
	IntraPeriod       int     `json:"intra_period,omitempty"`
	SceneCutThreshold float64 `json:"scene_cut_threshold,omitempty"`
	FrameParallel     bool    `json:"frame_parallel,omitempty"`

	// MaxShards caps how many GOP runs the stream splits into; 0 means one
	// shard per alive node at submission. 1 disables sharding.
	MaxShards int `json:"max_shards,omitempty"`

	YUV []byte `json:"yuv,omitempty"`
}

// whole is the stream as one serve job: the spec a single node would run
// for the entire input. It is the stream's only normalisation; shards are
// cut from it (shardsOf) exactly as plain jobs are.
func (sp StreamSpec) whole() serve.JobSpec {
	return serve.JobSpec{
		Name: sp.Name, Mode: sp.Mode, Width: sp.Width, Height: sp.Height, Frames: sp.Frames,
		SearchArea: sp.SearchArea, RefFrames: sp.RefFrames, IQP: sp.IQP, PQP: sp.PQP,
		IntraPeriod: sp.IntraPeriod, SceneCutThreshold: sp.SceneCutThreshold,
		FrameParallel: sp.FrameParallel, YUV: sp.YUV,
	}
}

// shardsOf cuts a validated whole-stream job into at most maxShards GOP
// runs. Each shard is the whole spec over frames [Start, Start+Frames),
// numbered globally from whole.FrameBase+Start, so it encodes
// byte-identically to the same frames of the whole job.
func shardsOf(whole serve.JobSpec, maxShards int) []*shard {
	w := whole.Workload()
	fb := whole.Width * whole.Height * 3 / 2
	ranges := shardRanges(whole.FrameCount(), whole.IntraPeriod, maxShards)
	out := make([]*shard, len(ranges))
	for i, r := range ranges {
		js := whole
		js.Name = fmt.Sprintf("%s/shard%d", whole.Name, i)
		js.FrameBase = whole.FrameBase + r.Start
		if whole.Mode == serve.ModeEncode {
			js.YUV = whole.YUV[r.Start*fb : (r.Start+r.Frames)*fb]
		} else {
			js.Frames = r.Frames
		}
		out[i] = &shard{idx: i, rng: r, spec: js, weight: unitWeight(w, r.Frames)}
	}
	return out
}

// shard is one GOP run of a stream and its placement history.
type shard struct {
	idx    int
	rng    ShardRange
	spec   serve.JobSpec
	weight float64

	// Guarded by Fleet.mu.
	node     *node
	job      *serve.Job
	attempts int // placements so far (1 = first lease)
	done     bool
	bits     []byte

	// Speculative second copy, racing the primary after a straggler
	// re-lease. Whichever copy finishes first is collected and attributed
	// as node/job; the loser is cancelled. Nil when no race is on.
	specNode *node
	specJob  *serve.Job
}

// Stream is one submitted job — a plain job is a stream of one shard.
type Stream struct {
	f    *Fleet
	id   string
	spec serve.JobSpec // the whole-stream job the shards are cut from

	// Guarded by Fleet.mu until done closes; immutable after.
	shards    []*shard
	status    serve.Status
	errMsg    string
	bitstream []byte
	submitted time.Time
	finished  time.Time

	done chan struct{}
}

// ShardStatus describes one shard's placement for status documents.
type ShardStatus struct {
	Index  int    `json:"index"`
	Start  int    `json:"start"`
	Frames int    `json:"frames"`
	Node   string `json:"node,omitempty"`
	Job    string `json:"job,omitempty"`
	// Attempts counts leases: 1 is the first placement, more means the
	// shard was re-leased after a node death, collection failure or
	// speculative straggler re-lease.
	Attempts int  `json:"attempts"`
	Done     bool `json:"done"`
	// Speculative names the node running an outstanding speculative copy
	// racing the primary placement (empty when no race is on).
	Speculative string `json:"speculative,omitempty"`
}

// StreamStatus is the status document of one stream.
type StreamStatus struct {
	ID     string       `json:"id"`
	Name   string       `json:"name,omitempty"`
	Mode   string       `json:"mode"`
	Status serve.Status `json:"status"`
	Error  string       `json:"error,omitempty"`
	Frames int          `json:"frames"`
	// Completed counts frames of shards fully collected.
	Completed int           `json:"completed"`
	Shards    []ShardStatus `json:"shards"`
	Submitted time.Time     `json:"submitted"`
	Finished  *time.Time    `json:"finished,omitempty"`
}

// Submit admits one plain job as a stream of one shard: routed by the
// third-level LP like any shard, re-leased to a survivor if its node dies.
// Admission errors mirror serve's: ErrDraining after shutdown began,
// serve.ErrBusy when every alive node's queue is full, ErrNoNodes when none
// are alive, or a validation error.
func (f *Fleet) Submit(spec serve.JobSpec) (*Stream, error) { return f.submit(spec, 1) }

// SubmitStream splits the stream at GOP boundaries into at most MaxShards
// runs (default: one per alive node) and admits it like Submit. Shards
// carry global frame numbering, so the reassembled bitstream is
// byte-identical to a single-node encode.
func (f *Fleet) SubmitStream(spec StreamSpec) (*Stream, error) {
	return f.submit(spec.whole(), spec.MaxShards)
}

// submit validates the whole-stream job, cuts it into shards and admits
// them in one routing decision. maxShards <= 0 means one per alive node.
func (f *Fleet) submit(whole serve.JobSpec, maxShards int) (*Stream, error) {
	if err := whole.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining || f.closed {
		return nil, serve.ErrDraining
	}
	if maxShards <= 0 {
		maxShards = len(f.aliveLocked())
	}
	st := &Stream{
		f:         f,
		spec:      whole,
		shards:    shardsOf(whole, maxShards),
		status:    serve.StatusRunning,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if err := f.admitLocked(st, st.shards, nil, false); err != nil {
		st.status = serve.StatusFailed // never registered: its watchers only release load
		for _, sh := range st.shards {
			if sh.job != nil {
				sh.job.Cancel()
			}
		}
		return nil, err
	}
	f.seq++
	st.id = fmt.Sprintf("stream-%d", f.seq)
	f.streams[st.id] = st
	f.streamOrder = append(f.streamOrder, st.id)
	f.metric("feves_fleet_streams_total", "Streams accepted by the fleet coordinator.").Inc()
	f.metric("feves_fleet_shards_total", "GOP shards placed on fleet nodes.").Add(float64(len(st.shards)))
	return st, nil
}

// admitLocked is the fleet's one admission routine. It routes units — shards
// of st — in one LP solve over the alive nodes other than exclude, with the
// nodes st's other shards occupy as the affinity preference, and admits
// each unit on its routed node, falling back over the others in
// predicted-finish order when a queue is full. Each admission charges the
// node the unit's weight and starts the watcher that releases it. A re-lease
// or speculative copy excludes the unit's current node: a failed collection
// is first-hand evidence it is unreachable before the heartbeat detector
// declares it. A speculative admission races the unit's primary placement
// instead of replacing it. On error, units admitted before the failing one
// keep their placements; the caller cancels them.
func (f *Fleet) admitLocked(st *Stream, units []*shard, exclude *node, speculative bool) error {
	alive := f.aliveLocked()
	if exclude != nil {
		kept := alive[:0]
		for _, n := range alive {
			if n != exclude {
				kept = append(kept, n)
			}
		}
		alive = kept
	}
	if len(alive) == 0 {
		return ErrNoNodes
	}
	var prefer []int
	for i, n := range alive {
		for _, sh := range st.shards {
			if sh.node == n {
				prefer = append(prefer, i)
				break
			}
		}
	}
	caps := f.capsLocked(alive, st.spec.Workload())
	batch := make([]routeUnit, len(units))
	for i, sh := range units {
		batch[i] = routeUnit{weight: sh.weight, prefer: prefer}
	}
	assign := f.rt.route(batch, caps)
	order := make([]int, 0, len(alive))
	for u, sh := range units {
		order = append(order[:0], assign[u])
		for i := range alive {
			if i != assign[u] {
				order = append(order, i)
			}
		}
		rest := order[1:]
		sort.SliceStable(rest, func(a, b int) bool {
			return finishTime(caps[rest[a]], sh.weight) < finishTime(caps[rest[b]], sh.weight)
		})
		var n *node
		var job *serve.Job
		var err error
		for _, i := range order {
			if job, err = alive[i].srv.Submit(sh.spec); err == nil {
				n = alive[i]
				break
			}
			if !errors.Is(err, serve.ErrBusy) && !errors.Is(err, serve.ErrDraining) {
				return err // spec error: no node will take it
			}
		}
		if n == nil {
			return err
		}
		f.shedOnceLocked(alive, caps, sh.weight, n)
		n.load += sh.weight
		n.jobs++
		f.metric("feves_fleet_routes_total", "Placements decided by the fleet router.", "node", n.label).Inc()
		if speculative {
			sh.specNode, sh.specJob = n, job
		} else {
			sh.node, sh.job = n, job
		}
		sh.attempts++
		f.inflight.Add(1)
		go f.watchShard(st, sh, n, job)
	}
	return nil
}

// watchShard waits for one shard placement to become terminal, collects
// its bitstream if the node is still trusted, and otherwise re-leases the
// shard to a surviving node — the PR-4 failover pattern lifted one level:
// the replay starts from the shard's opening IDR and is byte-idempotent,
// so a death-and-replay stream equals the undisturbed one bit for bit.
// When a speculative copy is racing the primary, one watcher runs per
// copy: the first to collect wins the shard and cancels its sibling; a
// copy that fails while its sibling still runs just promotes the sibling
// to sole placement. A copy canceled on a node the coordinator still
// trusts was canceled by its caller (DELETE /jobs/{node}/{id}), so the
// stream ends canceled instead of respawning it. The watcher is the one
// place a placement's load is released.
func (f *Fleet) watchShard(st *Stream, sh *shard, n *node, job *serve.Job) {
	defer f.inflight.Done()
	status := job.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	n.load -= sh.weight
	if n.load < 0 {
		n.load = 0
	}
	if st.terminalLocked() || sh.done {
		return
	}
	if sh.job != job && sh.specJob != job {
		return // superseded by a later re-lease
	}
	trusted := !n.killed && !n.dead
	if status == serve.StatusCanceled && trusted {
		f.finishStreamLocked(st, serve.StatusCanceled, fmt.Sprintf("shard %d [%d,%d) on %s: job %s canceled",
			sh.idx, sh.rng.Start, sh.rng.Start+sh.rng.Frames, n.label, job.ID()))
		return
	}
	// The sibling copy, when speculation left two placements racing.
	sibling, siblingNode := sh.specJob, sh.specNode
	if job == sh.specJob {
		sibling, siblingNode = sh.job, sh.node
	}
	// Collection models fetching the result off the node: it fails when
	// the machine has vanished (killed) even if the coordinator has not
	// yet declared it dead — exactly like a network fetch would.
	if status == serve.StatusDone && trusted {
		if job == sh.specJob {
			f.specWins++
			f.metric("feves_fleet_speculative_wins_total",
				"Speculative shard copies that finished before their primary.").Inc()
		}
		sh.bits = job.Bitstream()
		sh.done = true
		sh.node, sh.job = n, job // attribute the shard to the winning copy
		sh.specNode, sh.specJob = nil, nil
		if sibling != nil && sibling != job {
			sibling.Cancel() // the losing copy stops at its next frame boundary
		}
		for _, other := range st.shards {
			if !other.done {
				return
			}
		}
		f.completeStreamLocked(st)
		return
	}
	if sibling != nil && sibling != job {
		// This copy failed but its sibling is still racing; make the
		// sibling the sole placement instead of opening a third lease.
		sh.node, sh.job = siblingNode, sibling
		sh.specNode, sh.specJob = nil, nil
		return
	}
	sh.specNode, sh.specJob = nil, nil
	why := fmt.Sprintf("shard %d [%d,%d) on %s: job %s %s", sh.idx, sh.rng.Start,
		sh.rng.Start+sh.rng.Frames, n.label, job.ID(), status)
	if !trusted {
		why = fmt.Sprintf("shard %d [%d,%d): node %s unreachable (job %s)", sh.idx,
			sh.rng.Start, sh.rng.Start+sh.rng.Frames, n.label, job.ID())
	}
	f.rerouteShardLocked(st, sh, why)
}

// rerouteShardLocked re-leases a shard to a surviving node and replays it
// from its opening IDR, preferring nodes the stream already occupies.
// Bounded by MaxShardRetries; exhaustion or an empty fleet fails the
// stream.
func (f *Fleet) rerouteShardLocked(st *Stream, sh *shard, why string) {
	if sh.attempts > f.cfg.MaxShardRetries {
		f.finishStreamLocked(st, serve.StatusFailed,
			fmt.Sprintf("shard %d exhausted %d re-leases: %s", sh.idx, f.cfg.MaxShardRetries, why))
		return
	}
	if err := f.admitLocked(st, []*shard{sh}, sh.node, false); err != nil {
		f.finishStreamLocked(st, serve.StatusFailed,
			fmt.Sprintf("shard %d re-lease failed: %v (%s)", sh.idx, err, why))
		return
	}
	sh.node.tel.Incident("re_lease", sh.rng.Start, -1,
		fmt.Sprintf("%s %s re-leased to %s as %s, replaying from IDR %d: %s",
			st.id, st.spec.Name, sh.node.label, sh.job.ID(), sh.rng.Start, why))
	f.metric("feves_fleet_releases_total", "Shards re-leased to a surviving node.").Inc()
}

// progressLocked is the shard's completion fraction across its copies.
func (sh *shard) progressLocked() float64 {
	if sh.done || sh.rng.Frames == 0 {
		return 1
	}
	best := 0
	if sh.job != nil {
		if c := sh.job.Status().Completed; c > best {
			best = c
		}
	}
	if sh.specJob != nil {
		if c := sh.specJob.Status().Completed; c > best {
			best = c
		}
	}
	return float64(best) / float64(sh.rng.Frames)
}

// speculateLocked is the straggler detector, run once per Tick when
// SpecSlack > 0. The third-level LP balances predicted finish times, so
// on its predicted trajectory every shard of a stream sits at roughly the
// same completion fraction at any instant; a shard trailing the stream's
// front-runner by more than SpecSlack is behind the LP's prediction —
// typically queued behind work on a backlogged but alive node that the
// heartbeat detector will never flag. It is re-leased to a second node
// exactly as node-death failover does, except the primary keeps running:
// whichever copy finishes first is collected and the loser cancelled, and
// byte-idempotent shard replay keeps the reassembled stream bit-exact.
func (f *Fleet) speculateLocked() {
	for _, id := range f.streamOrder {
		st := f.streams[id]
		if st.terminalLocked() || len(st.shards) < 2 {
			continue
		}
		front := 0.0
		for _, sh := range st.shards {
			if p := sh.progressLocked(); p > front {
				front = p
			}
		}
		for _, sh := range st.shards {
			if sh.done || sh.specJob != nil || sh.attempts > f.cfg.MaxShardRetries {
				continue
			}
			lag := front - sh.progressLocked()
			if lag <= f.cfg.SpecSlack {
				continue
			}
			if f.admitLocked(st, []*shard{sh}, sh.node, true) != nil {
				continue // best effort: every node busy now; the next tick retries
			}
			f.specRel++
			sh.specNode.tel.Incident("speculative_release", sh.rng.Start, -1,
				fmt.Sprintf("%s shard %d straggling (%.0f%% vs front-runner %.0f%%): speculative copy on %s as %s",
					st.id, sh.idx, 100*sh.progressLocked(), 100*front, sh.specNode.label, sh.specJob.ID()))
			f.metric("feves_fleet_speculative_releases_total",
				"Straggling shards speculatively re-leased before heartbeat declaration.").Inc()
		}
	}
}

// completeStreamLocked assembles a fully collected stream and finishes it.
func (f *Fleet) completeStreamLocked(st *Stream) {
	if st.spec.Mode != serve.ModeEncode {
		f.finishStreamLocked(st, serve.StatusDone, "")
		return
	}
	bits := make([][]byte, len(st.shards))
	for i, sh := range st.shards {
		bits[i] = sh.bits
	}
	out, err := assembleShards(st.spec.CodecConfig(), bits)
	if err != nil {
		f.finishStreamLocked(st, serve.StatusFailed, err.Error())
		return
	}
	st.bitstream = out
	f.finishStreamLocked(st, serve.StatusDone, "")
}

// finishStreamLocked moves a stream to a terminal state exactly once.
func (f *Fleet) finishStreamLocked(st *Stream, status serve.Status, errMsg string) {
	if st.terminalLocked() {
		return
	}
	st.status = status
	st.errMsg = errMsg
	st.finished = time.Now()
	if status != serve.StatusDone {
		for _, sh := range st.shards {
			if sh.job != nil {
				sh.job.Cancel()
			}
			if sh.specJob != nil {
				sh.specJob.Cancel()
			}
		}
	}
	close(st.done)
	f.metric("feves_fleet_streams_finished_total", "Streams finished by terminal status.",
		"status", string(status)).Inc()
}

func (st *Stream) terminalLocked() bool { return st.status != serve.StatusRunning }

// ID returns the stream identifier ("stream-1").
func (st *Stream) ID() string { return st.id }

// Wait blocks until the stream is terminal and returns its status.
func (st *Stream) Wait() serve.Status {
	<-st.done
	return st.status
}

// Cancel aborts the stream: every shard job is canceled (running sessions
// stop between frames) and the stream ends canceled.
func (st *Stream) Cancel() {
	f := st.f
	f.mu.Lock()
	f.finishStreamLocked(st, serve.StatusCanceled, "canceled")
	f.mu.Unlock()
}

// Bitstream returns the reassembled coded stream of a finished encode
// stream (nil otherwise).
func (st *Stream) Bitstream() []byte {
	f := st.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if st.status != serve.StatusDone {
		return nil
	}
	return st.bitstream
}

// Results merges the per-frame results of every shard's current placement,
// ordered by global frame number — the whole-stream view a single-node job
// would have produced. Frames replayed on a re-lease appear once, from the
// placement that was finally collected.
func (st *Stream) Results() []serve.FrameResult {
	f := st.f
	f.mu.Lock()
	jobs := make([]*serve.Job, 0, len(st.shards))
	for _, sh := range st.shards {
		if sh.job != nil {
			jobs = append(jobs, sh.job)
		}
	}
	f.mu.Unlock()
	var out []serve.FrameResult
	for _, j := range jobs {
		out = append(out, j.Results()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

// Status returns the stream's status document.
func (st *Stream) Status() StreamStatus {
	f := st.f
	f.mu.Lock()
	defer f.mu.Unlock()
	doc := StreamStatus{
		ID: st.id, Name: st.spec.Name, Mode: st.spec.Mode,
		Status: st.status, Error: st.errMsg,
		Frames:    st.spec.FrameCount(),
		Submitted: st.submitted,
	}
	for _, sh := range st.shards {
		ss := ShardStatus{
			Index: sh.idx, Start: sh.rng.Start, Frames: sh.rng.Frames,
			Attempts: sh.attempts, Done: sh.done,
		}
		if sh.node != nil {
			ss.Node = sh.node.label
		}
		if sh.job != nil {
			ss.Job = sh.job.ID()
		}
		if sh.specNode != nil {
			ss.Speculative = sh.specNode.label
		}
		if sh.done {
			doc.Completed += sh.rng.Frames
		}
		doc.Shards = append(doc.Shards, ss)
	}
	if !st.finished.IsZero() {
		t := st.finished
		doc.Finished = &t
	}
	return doc
}

// Streams lists every known stream in submission order.
func (f *Fleet) Streams() []*Stream {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Stream, 0, len(f.streamOrder))
	for _, id := range f.streamOrder {
		out = append(out, f.streams[id])
	}
	return out
}

// Stream returns a submitted stream by id.
func (f *Fleet) Stream(id string) (*Stream, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.streams[id]
	return st, ok
}
