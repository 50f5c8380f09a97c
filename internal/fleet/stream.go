package fleet

import (
	"fmt"
	"sort"
	"time"

	"feves/internal/h264/codec"
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

// jobSpec derives the serve job of one shard: the frames [r.Start,
// r.Start+r.Frames) of the stream under the stream's coding parameters,
// numbered globally via FrameBase so the shard encodes byte-identically to
// the same frames of a whole-stream session.
func (sp StreamSpec) jobSpec(r ShardRange, shardIdx int) serve.JobSpec {
	js := serve.JobSpec{
		Name:              fmt.Sprintf("%s/shard%d", sp.Name, shardIdx),
		Mode:              sp.Mode,
		Width:             sp.Width,
		Height:            sp.Height,
		SearchArea:        sp.SearchArea,
		RefFrames:         sp.RefFrames,
		IQP:               sp.IQP,
		PQP:               sp.PQP,
		IntraPeriod:       sp.IntraPeriod,
		SceneCutThreshold: sp.SceneCutThreshold,
		FrameBase:         r.Start,
		FrameParallel:     sp.FrameParallel,
	}
	if sp.Mode == serve.ModeEncode {
		fb := sp.Width * sp.Height * 3 / 2
		js.YUV = sp.YUV[r.Start*fb : (r.Start+r.Frames)*fb]
	} else {
		js.Frames = r.Frames
	}
	return js
}

func (sp StreamSpec) frameCount() int {
	return serve.JobSpec{Mode: sp.Mode, Width: sp.Width, Height: sp.Height,
		Frames: sp.Frames, YUV: sp.YUV}.FrameCount()
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

// Stream is one submitted (possibly sharded) stream.
type Stream struct {
	f    *Fleet
	id   string
	spec StreamSpec
	cfg  codec.Config // shard 0's codec config, for reassembly

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

// SubmitStream validates the stream as one whole-stream job, splits it at
// GOP boundaries into at most MaxShards runs (default: one per alive
// node), routes all shards in one LP solve, and admits each shard on its
// node. Shards carry global frame numbering, so the reassembled bitstream
// is byte-identical to a single-node encode.
func (f *Fleet) SubmitStream(spec StreamSpec) (*Stream, error) {
	whole := spec.jobSpec(ShardRange{Start: 0, Frames: spec.frameCount()}, 0)
	whole.Name = spec.Name
	if err := whole.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining || f.closed {
		return nil, serve.ErrDraining
	}
	alive := f.aliveLocked()
	if len(alive) == 0 {
		return nil, ErrNoNodes
	}
	maxShards := spec.MaxShards
	if maxShards <= 0 {
		maxShards = len(alive)
	}
	ranges := shardRanges(spec.frameCount(), spec.IntraPeriod, maxShards)
	f.seq++
	st := &Stream{
		f:         f,
		id:        fmt.Sprintf("stream-%d", f.seq),
		spec:      spec,
		status:    serve.StatusRunning,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	w := whole.Workload()
	for i, r := range ranges {
		js := spec.jobSpec(r, i)
		if i == 0 {
			st.cfg = js.CodecConfig()
		}
		st.shards = append(st.shards, &shard{
			idx: i, rng: r, spec: js, weight: unitWeight(w, r.Frames),
		})
	}
	// One LP solve places every shard; per-shard admission falls back over
	// the other alive nodes if the routed node's queue is full.
	units := make([]routeUnit, len(st.shards))
	for i, sh := range st.shards {
		units[i] = routeUnit{weight: sh.weight}
	}
	caps := f.capsLocked(alive, w)
	// route returns retained scratch; copy it, since a fallback placement
	// below routes again and would clobber the batch assignment.
	assign := append([]int(nil), f.rt.route(units, caps)...)
	for i, sh := range st.shards {
		n := alive[assign[i]]
		job, err := n.srv.Submit(sh.spec)
		if err != nil {
			var fallbackErr error
			n, job, fallbackErr = f.placeLocked(sh.spec, w, sh.weight, nil, streamNodesLocked(st, sh))
			if fallbackErr != nil {
				for _, prev := range st.shards[:i] {
					prev.job.Cancel()
					prev.node.load -= prev.weight
				}
				return nil, fallbackErr
			}
		} else {
			f.shedOnceLocked(alive, caps, sh.weight, n)
			n.load += sh.weight
			n.jobs++
			f.metric("feves_fleet_routes_total", "Placements decided by the fleet router.", "node", n.label).Inc()
		}
		sh.node, sh.job = n, job
		sh.attempts = 1
		f.metric("feves_fleet_shards_total", "GOP shards placed on fleet nodes.").Inc()
	}
	f.streams[st.id] = st
	f.streamOrder = append(f.streamOrder, st.id)
	f.inflight.Add(1)
	f.metric("feves_fleet_streams_total", "Streams accepted by the fleet coordinator.").Inc()
	for _, sh := range st.shards {
		go f.watchShard(st, sh, sh.node, sh.job)
	}
	return st, nil
}

// streamNodesLocked lists the alive nodes currently hosting other shards
// of st — the affinity preference a fallback, re-lease or speculative
// placement hands the router so replacements keep the stream's reassembly
// fan-in bounded.
func streamNodesLocked(st *Stream, except *shard) []*node {
	var out []*node
	for _, sh := range st.shards {
		if sh == except || sh.node == nil || sh.node.dead {
			continue
		}
		out = append(out, sh.node)
	}
	return out
}

// watchShard waits for one shard placement to become terminal, collects
// its bitstream if the node is still trusted, and otherwise re-leases the
// shard to a surviving node — the PR-4 failover pattern lifted one level:
// the replay starts from the shard's opening IDR and is byte-idempotent,
// so a death-and-replay stream equals the undisturbed one bit for bit.
// When a speculative copy is racing the primary, one watcher runs per
// copy: the first to collect wins the shard and cancels its sibling; a
// copy that fails while its sibling still runs just promotes the sibling
// to sole placement.
func (f *Fleet) watchShard(st *Stream, sh *shard, n *node, job *serve.Job) {
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
	// The sibling copy, when speculation left two placements racing.
	sibling, siblingNode := sh.specJob, sh.specNode
	if job == sh.specJob {
		sibling, siblingNode = sh.job, sh.node
	}
	// Collection models fetching the result off the node: it fails when
	// the machine has vanished (killed) even if the coordinator has not
	// yet declared it dead — exactly like a network fetch would.
	if status == serve.StatusDone && !n.killed && !n.dead {
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
	if n.killed || n.dead {
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
	w := sh.spec.Workload()
	n2, job2, err := f.placeLocked(sh.spec, w, sh.weight, sh.node, streamNodesLocked(st, sh))
	if err != nil {
		f.finishStreamLocked(st, serve.StatusFailed,
			fmt.Sprintf("shard %d re-lease failed: %v (%s)", sh.idx, err, why))
		return
	}
	sh.node, sh.job = n2, job2
	sh.attempts++
	n2.tel.Incident("re_lease", sh.rng.Start, -1,
		fmt.Sprintf("%s %s re-leased to %s as %s, replaying from IDR %d: %s",
			st.id, st.spec.Name, n2.label, job2.ID(), sh.rng.Start, why))
	f.metric("feves_fleet_releases_total", "Shards re-leased to a surviving node.").Inc()
	go f.watchShard(st, sh, n2, job2)
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
			w := sh.spec.Workload()
			n2, job2, err := f.placeLocked(sh.spec, w, sh.weight, sh.node, streamNodesLocked(st, sh))
			if err != nil {
				continue // best effort: every node busy now; the next tick retries
			}
			sh.specNode, sh.specJob = n2, job2
			sh.attempts++
			f.specRel++
			n2.tel.Incident("speculative_release", sh.rng.Start, -1,
				fmt.Sprintf("%s shard %d straggling (%.0f%% vs front-runner %.0f%%): speculative copy on %s as %s",
					st.id, sh.idx, 100*sh.progressLocked(), 100*front, n2.label, job2.ID()))
			f.metric("feves_fleet_speculative_releases_total",
				"Straggling shards speculatively re-leased before heartbeat declaration.").Inc()
			go f.watchShard(st, sh, n2, job2)
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
	out, err := assembleShards(st.cfg, bits)
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
	f.inflight.Done()
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
		Frames:    st.spec.frameCount(),
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
