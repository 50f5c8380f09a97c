// Package fleet federates several simulated nodes — each a full device
// platform fronted by its own multi-tenant encode service (internal/serve)
// over its own device pool (internal/pool) — behind one coordinator. It is
// the third level of the FEVES scheduling hierarchy: the per-frame LP
// (Algorithm 2) splits a frame's rows across one session's devices, the
// pool partitioner splits one node's devices across its tenant sessions,
// and the fleet router places whole sessions and GOP shards across nodes
// by solving a min-max LP over each node's calibrated aggregate row rate.
//
// The fleet admits one kind of work: a whole-stream serve.JobSpec cut at
// GOP boundaries into one or more shards. A plain job (Submit) is a stream
// of one shard; SubmitStream lets a heavy stream split across nodes. Each
// shard is an ordinary serve job carrying the global frame numbering of
// its slice (JobSpec.FrameBase), so the reassembled bitstream is
// byte-identical to a single-node encode of the whole input.
//
// Nodes die. The simulation's virtual clock (Tick) drives heartbeats; a
// node that misses MissLimit consecutive beats is declared dead — its
// server is closed, its capacity leaves the router, and every shard it
// held, plain jobs included, is re-leased to a surviving node and replayed
// from its opening IDR. Because replayed shards are byte-idempotent, the
// final stream is still bit-exact after a mid-stream node death.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"feves/internal/device"
	"feves/internal/serve"
	"feves/internal/telemetry"
)

// ErrNoNodes is returned when admission finds no alive node to place work
// on (all dead, or the fleet was built empty).
var ErrNoNodes = errors.New("fleet: no alive nodes")

// NodeConfig describes one simulated node: a label, the physical platform
// it contributes, and its local service limits. Per-node determinism comes
// from the platform (device seeds/profiles) plus the node's fault spec.
type NodeConfig struct {
	// Label names the node ("node0"); it keys telemetry scopes, routing
	// decisions and the death schedule. Must be unique and non-empty.
	Label string
	// Platform is the node's physical device platform.
	Platform *device.Platform
	// MaxSessions / QueueDepth configure the node's serve.Server.
	MaxSessions int
	QueueDepth  int
	// FaultSpec injects deterministic device faults into this node only
	// (grammar of device.ParseFaults).
	FaultSpec string
}

// Config configures a Fleet.
type Config struct {
	Nodes []NodeConfig
	// Telemetry is the shared observability sink; each node observes
	// through a node-scoped view of it (telemetry.ForNode), so every
	// metric, event, trace lane and flight record names its node.
	Telemetry *telemetry.Telemetry
	// CheckSchedules / DeadlineSlack / MaxFrameRetries apply to every
	// node's server (see serve.Config).
	CheckSchedules  bool
	DeadlineSlack   float64
	MaxFrameRetries int
	// MissLimit is how many consecutive virtual-clock ticks without a
	// heartbeat make the coordinator declare a node dead (default 3).
	MissLimit int
	// MaxShardRetries bounds how many times one shard may be re-leased to
	// another node after collection failures (default 3).
	MaxShardRetries int
	// Affinity biases placement toward nodes a stream already occupies: a
	// shard stays on such a node when the LP share (or greedy finish-time
	// factor) it gives up is within Affinity, bounding reassembly fan-in.
	// 0 disables; 1 collapses a stream onto as few nodes as admission
	// allows. Typical values 0.2–0.5.
	Affinity float64
	// SpecSlack arms speculative straggler re-lease: at every Tick, a
	// still-running shard whose completion fraction trails its stream's
	// most advanced shard by more than SpecSlack is re-leased to a second
	// node — before the heartbeat detector would fire, which for an alive
	// but backlogged node is never. Both copies run; the first to finish
	// is collected and the loser cancelled, and byte-idempotent shard
	// replay keeps the reassembled stream bit-exact. 0 disables.
	SpecSlack float64
	// Deaths is the deterministic node-death schedule: "die:LABEL@TICK"
	// entries separated by ';' or ','. At virtual tick TICK the node
	// vanishes silently — it stops heartbeating but its server keeps
	// running; the coordinator only learns of the death MissLimit ticks
	// later, and results arriving from a vanished node fail collection.
	Deaths string
}

// node is one federated member and its coordinator-side bookkeeping.
type node struct {
	label string
	srv   *serve.Server
	tel   *telemetry.Telemetry

	// Guarded by Fleet.mu.
	killed   bool    // machine vanished (stops heartbeating); silent
	dead     bool    // coordinator declared it dead (server closed)
	lastBeat uint64  // virtual tick of the last heartbeat received
	load     float64 // routed-but-unfinished weight, in row·frames
	jobs     int     // fleet-routed placements accepted so far
}

// death is one parsed entry of the death schedule.
type death struct {
	label string
	tick  uint64
	fired bool
}

// Fleet is the multi-node coordinator.
type Fleet struct {
	cfg Config
	tel *telemetry.Telemetry

	mu          sync.Mutex
	nodes       []*node
	byLabel     map[string]*node
	deaths      []death
	clock       uint64
	rt          *router
	streams     map[string]*Stream
	streamOrder []string
	seq         int
	draining    bool
	closed      bool
	shed        int // placements steered away from a queue-deep node
	specRel     int // straggler shards speculatively re-leased
	specWins    int // speculative copies that beat their primary

	inflight sync.WaitGroup // running shard watchers (watchShard)
}

// New builds the fleet: one serve.Server per node, each observing through
// a node-scoped telemetry view, and the shared third-level router.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: no nodes configured")
	}
	if cfg.MissLimit <= 0 {
		cfg.MissLimit = 3
	}
	if cfg.MaxShardRetries <= 0 {
		cfg.MaxShardRetries = 3
	}
	if cfg.Affinity < 0 {
		cfg.Affinity = 0
	}
	if cfg.SpecSlack < 0 {
		cfg.SpecSlack = 0
	}
	f := &Fleet{
		cfg:     cfg,
		tel:     cfg.Telemetry,
		byLabel: map[string]*node{},
		rt:      newRouter(cfg.Affinity),
		streams: map[string]*Stream{},
	}
	deaths, err := parseDeaths(cfg.Deaths)
	if err != nil {
		return nil, err
	}
	f.deaths = deaths
	for _, nc := range cfg.Nodes {
		if err := f.join(nc); err != nil {
			f.Close()
			return nil, err
		}
	}
	for _, d := range f.deaths {
		if _, ok := f.byLabel[d.label]; !ok {
			f.Close()
			return nil, fmt.Errorf("fleet: death schedule names unknown node %q", d.label)
		}
	}
	return f, nil
}

// parseDeaths parses "die:LABEL@TICK[;die:LABEL@TICK...]".
func parseDeaths(spec string) ([]death, error) {
	if spec == "" {
		return nil, nil
	}
	var out []death
	for _, part := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rest, ok := strings.CutPrefix(part, "die:")
		if !ok {
			return nil, fmt.Errorf("fleet: death entry %q must start with \"die:\"", part)
		}
		label, at, ok := strings.Cut(rest, "@")
		if !ok || label == "" {
			return nil, fmt.Errorf("fleet: death entry %q must be die:LABEL@TICK", part)
		}
		tick, err := strconv.ParseUint(at, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: death entry %q: bad tick: %v", part, err)
		}
		out = append(out, death{label: label, tick: tick})
	}
	return out, nil
}

// Join adds a node to a running fleet; subsequent routing decisions see
// its capacity. Labels must stay unique (dead labels are not reusable).
func (f *Fleet) Join(nc NodeConfig) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.draining {
		return serve.ErrDraining
	}
	return f.join(nc)
}

// join is Join without admission checks; caller holds f.mu (or owns f
// exclusively during New).
func (f *Fleet) join(nc NodeConfig) error {
	if nc.Label == "" {
		return fmt.Errorf("fleet: node needs a label")
	}
	if _, dup := f.byLabel[nc.Label]; dup {
		return fmt.Errorf("fleet: duplicate node label %q", nc.Label)
	}
	tel := f.tel.ForNode(nc.Label)
	srv, err := serve.New(serve.Config{
		Platform:        nc.Platform,
		MaxSessions:     nc.MaxSessions,
		QueueDepth:      nc.QueueDepth,
		CheckSchedules:  f.cfg.CheckSchedules,
		Telemetry:       tel,
		DeadlineSlack:   f.cfg.DeadlineSlack,
		MaxFrameRetries: f.cfg.MaxFrameRetries,
		FaultSpec:       nc.FaultSpec,
	})
	if err != nil {
		return fmt.Errorf("fleet: node %s: %w", nc.Label, err)
	}
	n := &node{label: nc.Label, srv: srv, tel: tel, lastBeat: f.clock}
	f.nodes = append(f.nodes, n)
	f.byLabel[nc.Label] = n
	f.metric("feves_fleet_nodes_total", "Nodes that joined the fleet.").Inc()
	return nil
}

// Node returns a node's server by label (introspection and tests).
func (f *Fleet) Node(label string) (*serve.Server, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.byLabel[label]
	if !ok {
		return nil, false
	}
	return n.srv, true
}

// Clock returns the current virtual tick.
func (f *Fleet) Clock() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

// Kill makes a node vanish silently at the current tick, exactly like a
// scheduled death: it stops heartbeating, but the coordinator only reacts
// once MissLimit beats have been missed. Returns false for unknown labels.
func (f *Fleet) Kill(label string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.byLabel[label]
	if !ok || n.killed || n.dead {
		return false
	}
	n.killed = true
	return true
}

// Tick advances the virtual clock one step: scheduled deaths fire, every
// surviving node heartbeats, and nodes whose last beat is MissLimit or
// more ticks old are declared dead — incident and post-mortem bundle in
// the flight recorder, server closed (running shard sessions cancel at
// their next frame boundary and re-lease to survivors), capacity removed
// from the router. Returns the labels declared dead this tick.
func (f *Fleet) Tick() []string {
	f.mu.Lock()
	f.clock++
	for i := range f.deaths {
		d := &f.deaths[i]
		if !d.fired && f.clock >= d.tick {
			d.fired = true
			if n := f.byLabel[d.label]; n != nil && !n.dead {
				n.killed = true
			}
		}
	}
	for _, n := range f.nodes {
		if !n.killed && !n.dead {
			n.lastBeat = f.clock
		}
	}
	var died []*node
	for _, n := range f.nodes {
		if !n.dead && f.clock-n.lastBeat >= uint64(f.cfg.MissLimit) {
			n.dead = true
			died = append(died, n)
		}
	}
	if f.cfg.SpecSlack > 0 && !f.draining && !f.closed {
		f.speculateLocked()
	}
	clock := f.clock
	f.mu.Unlock()

	labels := make([]string, 0, len(died))
	for _, n := range died {
		labels = append(labels, n.label)
		detail := fmt.Sprintf("no heartbeat for %d ticks (last at tick %d); re-leasing its work", f.cfg.MissLimit, n.lastBeat)
		n.tel.Incident("node_down", int(clock), -1, detail)
		n.tel.CaptureBundle("node_death", int(clock), detail)
		f.metric("feves_fleet_nodes_lost_total", "Nodes declared dead after missed heartbeats.").Inc()
		// Closing the server cancels the node's sessions between frames;
		// each shard's watcher then wakes and re-leases to a survivor.
		n.srv.Close()
	}
	return labels
}

// aliveLocked lists the nodes the coordinator currently trusts (not
// declared dead). Silently killed nodes still appear until declared —
// the coordinator cannot know better, which is the point.
func (f *Fleet) aliveLocked() []*node {
	out := make([]*node, 0, len(f.nodes))
	for _, n := range f.nodes {
		if !n.dead {
			out = append(out, n)
		}
	}
	return out
}

// unitWeight is a placement's serialized row demand: frame rows × frames,
// the numerator of the router LP's node finish-time estimate.
func unitWeight(w device.Workload, frames int) float64 {
	return float64(w.Rows()) * float64(frames)
}

// capsLocked builds the router's node view for a workload: calibrated
// aggregate row rate over up devices, plus each node's live queue-aware
// load (serve.Server.Load — the remaining row·frame weight of everything
// queued and running there), refreshed at every placement so a node whose
// backlog deepened since the last decision is routed around. Order matches
// alive.
func (f *Fleet) capsLocked(alive []*node, w device.Workload) []nodeCap {
	caps := make([]nodeCap, len(alive))
	for i, n := range alive {
		caps[i] = nodeCap{rate: n.srv.Pool().Rate(w), load: n.srv.Load()}
	}
	return caps
}

// shedOnceLocked detects and counts a load-shed: the placement avoided
// the node a capacity-only router (calibrated rate plus coordinator-
// routed weight, the PR 8 view) would have picked, because that node's
// live queue made it slower. caps is the queue-aware view in alive order.
func (f *Fleet) shedOnceLocked(alive []*node, caps []nodeCap, weight float64, chosen *node) {
	if len(alive) < 2 {
		return
	}
	capOnly := 0
	for i := 1; i < len(alive); i++ {
		if finishTime(nodeCap{rate: caps[i].rate, load: alive[i].load}, weight) <
			finishTime(nodeCap{rate: caps[capOnly].rate, load: alive[capOnly].load}, weight) {
			capOnly = i
		}
	}
	avoided := alive[capOnly]
	if avoided == chosen || caps[capOnly].load <= avoided.load {
		return
	}
	f.shed++
	f.metric("feves_fleet_shed_total",
		"Placements steered away from a node by its live queue depth.",
		"node", avoided.label).Inc()
}

func finishTime(c nodeCap, weight float64) float64 {
	if c.rate <= 0 {
		return 1e300
	}
	return (c.load + weight) / c.rate
}

// JobRef names a node-local job — a shard's placement or work submitted
// to a node's server directly — by its node label and the job itself.
type JobRef struct {
	Node string
	Job  *serve.Job
}

// Jobs lists every node's jobs as JobRefs, nodes in join order, jobs in
// node submission order: the node-local view behind GET /jobs.
func (f *Fleet) Jobs() []JobRef {
	f.mu.Lock()
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	var out []JobRef
	for _, n := range nodes {
		for _, j := range n.srv.Jobs() {
			out = append(out, JobRef{Node: n.label, Job: j})
		}
	}
	return out
}

// Job resolves a fleet-wide job id ("node0/job-3").
func (f *Fleet) Job(node, id string) (JobRef, bool) {
	f.mu.Lock()
	n, ok := f.byLabel[node]
	f.mu.Unlock()
	if !ok {
		return JobRef{}, false
	}
	j, ok := n.srv.Job(id)
	if !ok {
		return JobRef{}, false
	}
	return JobRef{Node: node, Job: j}, true
}

// Backlog sums the alive nodes' backlogs — the cluster-wide figure the
// admission 503s turn into a Retry-After hint via serve.RetryAfterSeconds.
func (f *Fleet) Backlog() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, n := range f.aliveLocked() {
		total += n.srv.Backlog()
	}
	return total
}

// Draining reports whether fleet shutdown has begun.
func (f *Fleet) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining || f.closed
}

// Drain stops admission fleet-wide and waits for every node's accepted
// jobs and every accepted stream to reach a terminal state; ctx expiry
// cancels the stragglers and waits for them to wind down. Once every node
// drains, no re-lease can be admitted, so the last watchers end promptly.
func (f *Fleet) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	var first error
	for _, n := range nodes {
		if err := n.srv.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	f.inflight.Wait()
	return first
}

// Close shuts every node down immediately; running sessions cancel at the
// next frame boundary and unfinished streams end canceled.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.draining = true
	nodes := append([]*node(nil), f.nodes...)
	var open []*Stream
	for _, st := range f.streams {
		if !st.terminalLocked() {
			open = append(open, st)
		}
	}
	for _, st := range open {
		f.finishStreamLocked(st, serve.StatusCanceled, "fleet shut down")
	}
	f.mu.Unlock()
	for _, n := range nodes {
		n.srv.Close()
	}
	f.inflight.Wait()
}

// metric is a nil-safe registry accessor.
func (f *Fleet) metric(name, help string, labels ...string) *telemetry.Counter {
	if f.tel == nil || f.tel.Metrics == nil {
		return &telemetry.Counter{}
	}
	return f.tel.Metrics.Counter(name, help, labels...)
}

// NodeState describes one node for /debug/state: the coordinator's view
// (alive/dead, heartbeat age, routed load) plus the node's own serve
// document (pool topology, leases, sessions, queue).
type NodeState struct {
	Label string `json:"label"`
	Dead  bool   `json:"dead"`
	// LastBeat is the virtual tick of the node's last heartbeat.
	LastBeat uint64 `json:"last_beat"`
	// Load is the routed-but-unfinished weight in row·frames; Jobs counts
	// fleet placements accepted by this node.
	Load float64 `json:"load"`
	Jobs int     `json:"jobs"`
	// QueueLoad is the node's live queue-aware load (serve.Server.Load):
	// the remaining row·frame weight of everything queued and running
	// there — the figure the router sheds on.
	QueueLoad float64 `json:"queue_load"`
	// Rate is the node's calibrated aggregate row rate for the reference
	// workload (1080p, SA 32, 1 RF) — the router's capacity yardstick.
	Rate  float64     `json:"rate"`
	Serve serve.State `json:"serve"`
}

// State is the cluster-wide introspection document served at /debug/state.
type State struct {
	Clock     uint64 `json:"clock"`
	MissLimit int    `json:"miss_limit"`
	Draining  bool   `json:"draining"`
	// Shed counts placements steered away from a queue-deep node; the
	// speculation pair counts straggler shards re-leased before heartbeat
	// declaration and how many of those copies beat their primary.
	Shed         int            `json:"shed"`
	SpecReleases int            `json:"speculative_releases"`
	SpecWins     int            `json:"speculative_wins"`
	Nodes        []NodeState    `json:"nodes"`
	Streams      []StreamStatus `json:"streams"`
	Router       RouterStats    `json:"router"`
}

// State snapshots the fleet. Safe to call while nodes encode and die.
func (f *Fleet) State() State {
	refW := device.Workload{MBW: 120, MBH: 68, SA: 32, NumRF: 1, UsableRF: 1}
	f.mu.Lock()
	st := State{
		Clock:        f.clock,
		MissLimit:    f.cfg.MissLimit,
		Draining:     f.draining || f.closed,
		Shed:         f.shed,
		SpecReleases: f.specRel,
		SpecWins:     f.specWins,
		Router:       f.rt.stats,
	}
	type row struct {
		n  *node
		ns NodeState
	}
	rows := make([]row, 0, len(f.nodes))
	for _, n := range f.nodes {
		rows = append(rows, row{n: n, ns: NodeState{
			Label: n.label, Dead: n.dead, LastBeat: n.lastBeat,
			Load: n.load, Jobs: n.jobs,
		}})
	}
	ids := append([]string(nil), f.streamOrder...)
	streams := make([]*Stream, 0, len(ids))
	for _, id := range ids {
		streams = append(streams, f.streams[id])
	}
	f.mu.Unlock()
	for _, r := range rows {
		r.ns.Rate = r.n.srv.Pool().Rate(refW)
		r.ns.QueueLoad = r.n.srv.Load()
		r.ns.Serve = r.n.srv.State()
		st.Nodes = append(st.Nodes, r.ns)
	}
	for _, s := range streams {
		st.Streams = append(st.Streams, s.Status())
	}
	return st
}
