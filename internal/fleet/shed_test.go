// Queue-aware routing: load shedding around deep admission queues,
// affinity-bounded reassembly fan-in, and speculative straggler re-lease
// ahead of the heartbeat detector. The scenarios here deepen a node's
// queue with work submitted directly to its server — invisible to the
// capacity-only router view, fully visible to the queue-aware one.
package fleet

import (
	"bytes"
	"testing"
	"time"

	"feves/internal/serve"
	"feves/internal/telemetry"
)

// fillerSpec is a wide, short encode job: row weight is height-derived
// (4 macroblock rows), so the router sees a light unit, while encode wall
// time scales with the full macroblock count — hundreds of times a 64×64
// shard's. Submitted directly to one node's server it makes that node a
// straggler host without tripping any capacity signal.
func fillerSpec(frames int) serve.JobSpec {
	const w, h = 4096, 64
	return serve.JobSpec{
		Name: "filler", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: 4,
		YUV: testYUV(w, h, frames),
	}
}

// TestDeepQueueNodeShedsNewWork deepens node0's admission queue with work
// the coordinator never routed (direct server submissions), then submits
// fleet jobs: the queue-aware router must send every one to the shallow
// peer and count the sheds, while node0 keeps heartbeating — never
// declared dead, because it is not.
func TestDeepQueueNodeShedsNewWork(t *testing.T) {
	f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk"), Telemetry: telemetry.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv0, ok := f.Node("node0")
	if !ok {
		t.Fatal("node0 unknown")
	}
	deep := serve.JobSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 5000}
	for i := 0; i < 3; i++ {
		if _, err := srv0.Submit(deep); err != nil {
			t.Fatalf("deepening node0: %v", err)
		}
	}
	probe := serve.JobSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 5}
	for i := 0; i < 4; i++ {
		st, err := f.Submit(probe)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if st.node() != "node1" {
			t.Fatalf("probe %d routed to %s despite node0's deep queue", i, st.node())
		}
	}
	if deaths := f.Tick(); len(deaths) != 0 {
		t.Fatalf("deep-queued node declared dead: %v", deaths)
	}
	state := f.State()
	if state.Shed < 4 {
		t.Fatalf("shed counter %d, want >= 4 (one per probe routed around node0)", state.Shed)
	}
	for _, ns := range state.Nodes {
		if ns.Dead {
			t.Fatalf("node %s dead in a death-free scenario", ns.Label)
		}
		if ns.Label == "node0" && ns.QueueLoad <= 0 {
			t.Fatalf("node0 queue load %v not surfaced in /debug/state", ns.QueueLoad)
		}
	}
	for _, ref := range f.Jobs() {
		ref.Job.Cancel()
	}
}

// TestStragglerSpeculativelyReleasedBitExact is the acceptance scenario:
// node0 (one session slot) is busy with a wide filler encode when a
// two-shard stream arrives. The queue-aware LP still assigns node0 one
// shard — its routed weight is light — but that shard sits queued, making
// zero progress while its sibling finishes on node1. The straggler
// detector must re-lease it speculatively well before any heartbeat
// declaration (the node is alive and beating throughout), and the
// reassembled bitstream must equal the single-node encode with zero
// dropped frames.
func TestStragglerSpeculativelyReleasedBitExact(t *testing.T) {
	const w, h, frames, gop = 64, 64, 16, 4
	spec := StreamSpec{
		Name: "clip", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop,
		MaxShards: 2,
		YUV:       testYUV(w, h, frames),
	}
	want := soloEncode(t, spec)

	nodes := testNodes(t, 2, "sysnfk")
	nodes[0].MaxSessions = 1
	tel := telemetry.New(nil)
	f, err := New(Config{
		Nodes: nodes, Telemetry: tel,
		SpecSlack: 0.5,
		MissLimit: 1 << 20, // heartbeat detection effectively disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	srv0, ok := f.Node("node0")
	if !ok {
		t.Fatal("node0 unknown")
	}
	// Occupy node0's only slot: light routed weight (7×4 row·frames), long
	// wall time (7 frames of 256 macroblock columns).
	if _, err := srv0.Submit(fillerSpec(7)); err != nil {
		t.Fatal(err)
	}

	st, err := f.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	queuedOn0 := false
	for _, sh := range st.Status().Shards {
		if sh.Node == "node0" {
			queuedOn0 = true
		}
	}
	if !queuedOn0 {
		t.Skip("LP kept the whole stream off node0; straggler scenario not constructed")
	}

	waitDone := make(chan serve.Status, 1)
	go func() { waitDone <- st.Wait() }()
	deadline := time.After(60 * time.Second)
	var got serve.Status
loop:
	for {
		select {
		case got = <-waitDone:
			break loop
		case <-time.After(time.Millisecond):
			if deaths := f.Tick(); len(deaths) != 0 {
				t.Fatalf("nodes declared dead in an all-alive scenario: %v", deaths)
			}
		case <-deadline:
			t.Fatalf("stream did not finish; status %+v", st.Status())
		}
	}
	if got != serve.StatusDone {
		t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
	}
	if b := st.Bitstream(); !bytes.Equal(b, want) {
		t.Fatalf("speculated stream diverges from single-node encode (%d vs %d bytes)", len(b), len(want))
	}
	assertNoDroppedFrames(t, st, frames)

	state := f.State()
	if state.SpecReleases < 1 {
		t.Fatalf("no speculative release recorded: %+v", state)
	}
	for _, ns := range state.Nodes {
		if ns.Dead {
			t.Fatalf("node %s declared dead; speculation must fire without any death", ns.Label)
		}
	}
	for _, sh := range st.Status().Shards {
		if sh.Node == "node0" {
			t.Fatalf("straggler shard still attributed to the backlogged node: %+v", sh)
		}
	}
	kinds := map[string]bool{}
	for _, inc := range tel.Flight.Doc().Incidents {
		kinds[inc.Kind] = true
	}
	if !kinds["speculative_release"] {
		t.Errorf("no speculative_release incident recorded: %v", kinds)
	}
	if kinds["node_down"] {
		t.Errorf("node_down incident recorded in an all-alive scenario")
	}
}

// TestAffinityBoundsFanIn submits a four-shard stream to a four-node
// fleet: with affinity 1 every shard must land on one node (minimal
// reassembly fan-in); with affinity 0 the min-max LP spreads them.
func TestAffinityBoundsFanIn(t *testing.T) {
	spec := StreamSpec{
		Name: "fan", Mode: serve.ModeSimulate,
		Width: 1920, Height: 1088, Frames: 32,
		IntraPeriod: 8, MaxShards: 4,
	}
	distinct := func(st *Stream) int {
		set := map[string]bool{}
		for _, sh := range st.Status().Shards {
			set[sh.Node] = true
		}
		return len(set)
	}
	for _, tc := range []struct {
		affinity float64
		want     func(n int) bool
		desc     string
	}{
		{0, func(n int) bool { return n >= 2 }, "spread over >= 2 nodes"},
		{1, func(n int) bool { return n == 1 }, "collapse onto 1 node"},
	} {
		f, err := New(Config{Nodes: testNodes(t, 4, "sysnfk"), Affinity: tc.affinity})
		if err != nil {
			t.Fatal(err)
		}
		st, err := f.SubmitStream(spec)
		if err != nil {
			t.Fatalf("affinity %v: %v", tc.affinity, err)
		}
		if n := distinct(st); !tc.want(n) {
			t.Fatalf("affinity %v placed 4 shards on %d nodes, want %s: %+v",
				tc.affinity, n, tc.desc, st.Status().Shards)
		}
		if tc.affinity == 1 {
			if hits := f.State().Router.AffinityHits; hits < 3 {
				t.Fatalf("affinity 1: %d affinity hits, want >= 3", hits)
			}
		}
		if got := st.Wait(); got != serve.StatusDone {
			t.Fatalf("affinity %v: stream finished %q (%s)", tc.affinity, got, st.Status().Error)
		}
		f.Close()
	}
}

// TestAffinityBoundsFanInUnderChurn kills the node holding an entire
// affine stream: the re-leases must collapse onto a single survivor (the
// first re-lease picks it, the rest follow their prefer list), and the
// replayed stream must stay bit-exact with zero drops.
func TestAffinityBoundsFanInUnderChurn(t *testing.T) {
	const w, h, frames, gop = 64, 64, 24, 4
	spec := StreamSpec{
		Name: "churn-fan", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop,
		MaxShards: 3,
		YUV:       testYUV(w, h, frames),
	}
	want := soloEncode(t, spec)

	f, err := New(Config{Nodes: testNodes(t, 3, "sysnfk"), Affinity: 1, MissLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := st.Status().Shards
	victim := first[0].Node
	for _, sh := range first {
		if sh.Node != victim {
			t.Fatalf("affinity 1 spread the stream before the kill: %+v", first)
		}
	}
	if !f.Kill(victim) {
		t.Fatalf("kill %s failed", victim)
	}
	waitDone := make(chan serve.Status, 1)
	go func() { waitDone <- st.Wait() }()
	deadline := time.After(60 * time.Second)
	var got serve.Status
loop:
	for {
		select {
		case got = <-waitDone:
			break loop
		case <-time.After(time.Millisecond):
			f.Tick()
		case <-deadline:
			t.Fatalf("stream did not finish; status %+v", st.Status())
		}
	}
	if got != serve.StatusDone {
		t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
	}
	if b := st.Bitstream(); !bytes.Equal(b, want) {
		t.Fatalf("post-churn bitstream diverges (%d vs %d bytes)", len(b), len(want))
	}
	assertNoDroppedFrames(t, st, frames)
	set := map[string]bool{}
	for _, sh := range st.Status().Shards {
		if sh.Node == victim {
			t.Fatalf("shard %d still on the killed node %s", sh.Index, victim)
		}
		set[sh.Node] = true
	}
	if len(set) != 1 {
		t.Fatalf("re-leases spread the affine stream over %d survivors: %+v", len(set), st.Status().Shards)
	}
}
