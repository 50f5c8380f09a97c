package fleet

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"feves/internal/core"
	"feves/internal/h264"
	"feves/internal/platforms"
	"feves/internal/serve"
	"feves/internal/telemetry"
	"feves/internal/vcm"
)

// testNodes builds n identical nodes over fresh copies of a registry
// platform, each with its own deterministic seed.
func testNodes(t *testing.T, n int, platform string) []NodeConfig {
	t.Helper()
	out := make([]NodeConfig, n)
	for i := range out {
		pl, err := platforms.Lookup(platform)
		if err != nil {
			t.Fatal(err)
		}
		pl.Seed = uint64(1000 + i)
		out[i] = NodeConfig{Label: nodeLabel(i), Platform: pl, QueueDepth: 32}
	}
	return out
}

func nodeLabel(i int) string { return "node" + string(rune('0'+i)) }

// testYUV builds a deterministic I420 sequence.
func testYUV(w, h, frames int) []byte {
	fb := w * h * 3 / 2
	buf := make([]byte, frames*fb)
	for i := range buf {
		buf[i] = byte((i*7 + i/fb*31) % 251)
	}
	return buf
}

// soloEncode is the single-node reference: one framework over one whole
// platform encoding every frame of the stream in order.
func soloEncode(t *testing.T, spec StreamSpec) []byte {
	t.Helper()
	pl, err := platforms.Lookup("sysnfk")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(core.Options{
		Platform: pl,
		Codec:    spec.whole().CodecConfig(),
		Mode:     vcm.Functional,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := spec.Width * spec.Height * 3 / 2
	for i := 0; i < spec.whole().FrameCount(); i++ {
		cf := h264.NewFrame(spec.Width, spec.Height)
		cf.Poc = i
		if err := cf.LoadYUV(spec.YUV[i*fb : (i+1)*fb]); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.EncodeNext(cf); err != nil {
			t.Fatal(err)
		}
	}
	out := fw.Bitstream()
	if len(out) == 0 {
		t.Fatal("solo reference produced an empty bitstream")
	}
	return out
}

// assertNoDroppedFrames requires the stream's merged results to cover
// every global frame index exactly once.
func assertNoDroppedFrames(t *testing.T, st *Stream, frames int) {
	t.Helper()
	rs := st.Results()
	if len(rs) != frames {
		t.Fatalf("stream results cover %d frames, want %d", len(rs), frames)
	}
	for i, r := range rs {
		if r.Frame != i {
			t.Fatalf("result %d is frame %d: dropped or duplicated frames", i, r.Frame)
		}
	}
}

// TestShardedEncodeBitExactVersusSingleNode is the core acceptance test:
// a stream sharded across three nodes at GOP boundaries reassembles to
// exactly the bytes a single-node whole-stream encode produces.
func TestShardedEncodeBitExactVersusSingleNode(t *testing.T) {
	const w, h, frames, gop = 64, 64, 12, 4
	spec := StreamSpec{
		Name: "clip", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop,
		YUV: testYUV(w, h, frames),
	}
	want := soloEncode(t, spec)

	f, err := New(Config{Nodes: testNodes(t, 3, "sysnfk")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Wait(); got != serve.StatusDone {
		t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
	}
	doc := st.Status()
	if len(doc.Shards) != 3 {
		t.Fatalf("stream split into %d shards, want 3", len(doc.Shards))
	}
	nodes := map[string]bool{}
	for _, sh := range doc.Shards {
		nodes[sh.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("router placed all shards on one node: %+v", doc.Shards)
	}
	if got := st.Bitstream(); !bytes.Equal(got, want) {
		t.Fatalf("sharded bitstream differs from single-node encode (%d vs %d bytes)",
			len(got), len(want))
	}
	assertNoDroppedFrames(t, st, frames)
}

// TestNodeDeathMidStreamReplaysAndStaysBitExact kills a node holding a
// shard, advances the virtual clock past the heartbeat miss limit, and
// requires: the coordinator declares the node dead, the shard re-leases to
// a survivor and replays from its opening IDR, the stream finishes with
// zero dropped frames, and the reassembled bitstream is still byte-equal
// to the single-node reference.
func TestNodeDeathMidStreamReplaysAndStaysBitExact(t *testing.T) {
	const w, h, frames, gop = 64, 64, 12, 4
	spec := StreamSpec{
		Name: "clip", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop,
		YUV: testYUV(w, h, frames),
	}
	want := soloEncode(t, spec)

	tel := telemetry.New(nil)
	f, err := New(Config{Nodes: testNodes(t, 3, "sysnfk"), Telemetry: tel, MissLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.SubmitStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the node holding the last shard the moment it is placed; the
	// coordinator only notices once MissLimit beats go missing.
	doc := st.Status()
	victim := doc.Shards[len(doc.Shards)-1].Node
	if !f.Kill(victim) {
		t.Fatalf("kill %s failed", victim)
	}
	deadline := time.After(60 * time.Second)
	declared := false
	for {
		for _, label := range f.Tick() {
			if label == victim {
				declared = true
			}
		}
		done := make(chan serve.Status, 1)
		go func() { done <- st.Wait() }()
		select {
		case got := <-done:
			if !declared {
				// The stream may have finished via early collection-failure
				// rerouting; keep ticking until the detector fires too.
				if got != serve.StatusDone {
					t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
				}
				continue
			}
			if got != serve.StatusDone {
				t.Fatalf("stream finished %q after node death (%s)", got, st.Status().Error)
			}
			if b := st.Bitstream(); !bytes.Equal(b, want) {
				t.Fatalf("post-death bitstream differs from single-node encode (%d vs %d bytes)",
					len(b), len(want))
			}
			assertNoDroppedFrames(t, st, frames)
			final := st.Status()
			moved := false
			for _, sh := range final.Shards {
				if sh.Node == victim {
					t.Fatalf("shard %d still attributed to dead node %s", sh.Index, victim)
				}
				if sh.Attempts > 1 {
					moved = true
				}
			}
			if !moved {
				t.Fatalf("no shard was re-leased despite the death of %s: %+v", victim, final.Shards)
			}
			state := f.State()
			deadSeen := false
			for _, ns := range state.Nodes {
				if ns.Label == victim && ns.Dead {
					deadSeen = true
				}
			}
			if !deadSeen {
				t.Fatalf("/debug/state does not mark %s dead: %+v", victim, state.Nodes)
			}
			doc := tel.Flight.Doc()
			kinds := map[string]bool{}
			for _, inc := range doc.Incidents {
				kinds[inc.Kind] = true
			}
			if !kinds["node_down"] {
				t.Errorf("no node_down incident recorded: %v", kinds)
			}
			if !kinds["re_lease"] {
				t.Errorf("no re_lease incident recorded: %v", kinds)
			}
			return
		case <-time.After(time.Millisecond):
		}
		select {
		case <-deadline:
			t.Fatalf("stream did not finish; status %+v", st.Status())
		default:
		}
	}
}

// oneShard is the two ways one unsharded piece of work enters the fleet —
// a plain job and a MaxShards 1 stream of the same spec — which must
// behave alike.
var oneShard = []struct {
	name   string
	submit func(f *Fleet, js serve.JobSpec) (*Stream, error)
}{
	{"job", (*Fleet).Submit},
	{"stream", func(f *Fleet, js serve.JobSpec) (*Stream, error) {
		return f.SubmitStream(StreamSpec{Name: js.Name, Mode: js.Mode, Width: js.Width, Height: js.Height,
			Frames: js.Frames, IntraPeriod: js.IntraPeriod, YUV: js.YUV, MaxShards: 1})
	}},
}

// node returns the node the stream's one shard runs on.
func (st *Stream) node() string { return st.Status().Shards[0].Node }

// TestSubmitRoutesJobsAcrossNodes routes a burst of one-shard work and
// expects the LP to spread it over several nodes.
func TestSubmitRoutesJobsAcrossNodes(t *testing.T) {
	for _, in := range oneShard {
		t.Run(in.name, func(t *testing.T) {
			f, err := New(Config{Nodes: testNodes(t, 3, "sysnfk")})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			used := map[string]bool{}
			jobs := make([]*Stream, 0, 6)
			for i := 0; i < 6; i++ {
				st, err := in.submit(f, serve.JobSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 30})
				if err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
				used[st.node()] = true
				jobs = append(jobs, st)
			}
			if len(used) < 2 {
				t.Fatalf("6 jobs all routed to one node: %v", used)
			}
			for i, st := range jobs {
				if got := st.Wait(); got != serve.StatusDone {
					t.Fatalf("job %d finished %q", i, got)
				}
			}
			state := f.State()
			if state.Router.Routes == 0 || state.Router.Solver.Solves == 0 {
				t.Fatalf("router stats empty: %+v", state.Router)
			}
		})
	}
}

// TestRouterSkipsDeadNodeCapacity declares a node dead and expects all
// subsequent placements to avoid it.
func TestRouterSkipsDeadNodeCapacity(t *testing.T) {
	for _, in := range oneShard {
		t.Run(in.name, func(t *testing.T) {
			f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk"), MissLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if !f.Kill("node0") {
				t.Fatal("kill node0 failed")
			}
			died := f.Tick()
			if len(died) != 1 || died[0] != "node0" {
				t.Fatalf("tick declared %v, want [node0]", died)
			}
			for i := 0; i < 4; i++ {
				st, err := in.submit(f, serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 3})
				if err != nil {
					t.Fatal(err)
				}
				if st.node() != "node1" {
					t.Fatalf("job %d routed to %s, want node1 (node0 is dead)", i, st.node())
				}
				if got := st.Wait(); got != serve.StatusDone {
					t.Fatalf("job %d finished %q", i, got)
				}
			}
		})
	}
}

// TestDeathScheduleFiresOnTicks drives the parsed "die:LABEL@TICK"
// schedule and checks detection latency is exactly MissLimit ticks.
func TestDeathScheduleFiresOnTicks(t *testing.T) {
	f, err := New(Config{
		Nodes:     testNodes(t, 2, "cpun"),
		MissLimit: 3,
		Deaths:    "die:node1@2",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// node1's last beat lands on tick 1 (it vanishes at tick 2); the
	// detector fires once clock-lastBeat reaches MissLimit, at tick 4.
	for tick := 1; tick <= 3; tick++ {
		if died := f.Tick(); len(died) != 0 {
			t.Fatalf("tick %d declared %v prematurely", tick, died)
		}
	}
	died := f.Tick()
	if len(died) != 1 || died[0] != "node1" {
		t.Fatalf("tick 4 declared %v, want [node1]", died)
	}
	state := f.State()
	var dead bool
	for _, ns := range state.Nodes {
		if ns.Label == "node1" {
			dead = ns.Dead
		}
	}
	if !dead {
		t.Fatalf("node1 not declared dead after schedule fired: %+v", state.Nodes)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	f, err := New(Config{Nodes: testNodes(t, 2, "cpun")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 2}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	if _, err := f.SubmitStream(StreamSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 2}); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("stream after drain = %v, want ErrDraining", err)
	}
}

func TestStreamValidation(t *testing.T) {
	f, err := New(Config{Nodes: testNodes(t, 1, "cpun")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bad := []StreamSpec{
		{Mode: "transcode", Width: 64, Height: 64, Frames: 2},
		{Mode: serve.ModeSimulate, Width: 60, Height: 64, Frames: 2},
		{Mode: serve.ModeEncode, Width: 64, Height: 64},
	}
	for i, spec := range bad {
		if _, err := f.SubmitStream(spec); err == nil {
			t.Errorf("spec %d accepted, want validation error", i)
		}
	}
}

func TestParseDeaths(t *testing.T) {
	ds, err := parseDeaths("die:node0@5; die:node2@17")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0] != (death{label: "node0", tick: 5}) || ds[1] != (death{label: "node2", tick: 17}) {
		t.Fatalf("parsed %+v", ds)
	}
	for _, bad := range []string{"node0@5", "die:@5", "die:node0", "die:node0@x"} {
		if _, err := parseDeaths(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if _, err := New(Config{Nodes: testNodes(t, 1, "cpun"), Deaths: "die:ghost@3"}); err == nil {
		t.Error("death schedule naming an unknown node accepted")
	}
}

// TestSimulateStreamAggregates runs a sharded simulate stream and checks
// the merged results carry the global frame numbering.
func TestSimulateStreamAggregates(t *testing.T) {
	f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.SubmitStream(StreamSpec{
		Mode: serve.ModeSimulate, Width: 1920, Height: 1088,
		Frames: 20, IntraPeriod: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Wait(); got != serve.StatusDone {
		t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
	}
	assertNoDroppedFrames(t, st, 20)
	for _, r := range st.Results() {
		if r.Frame%5 == 0 && !r.Intra {
			t.Fatalf("global frame %d should be an IDR under intra period 5", r.Frame)
		}
	}
}

// TestSpecDefaultsNormalisedOnce submits a stream whose optional coding
// parameters are all zero and compares the two places its normalised form
// is used: what each node's serve session ran with (the spec serve stored
// at admission) and what the fleet routed, weighted and reassembles by.
// Both must be the paper's evaluation configuration, SA 32, 1 RF, QP 27/28.
func TestSpecDefaultsNormalisedOnce(t *testing.T) {
	f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const w, h, frames, gop = 64, 64, 8, 4
	st, err := f.SubmitStream(StreamSpec{Mode: serve.ModeEncode, Width: w, Height: h,
		IntraPeriod: gop, YUV: testYUV(w, h, frames)})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Wait(); got != serve.StatusDone {
		t.Fatalf("stream finished %q (%s)", got, st.Status().Error)
	}
	want := serve.JobSpec{Mode: serve.ModeEncode, Width: w, Height: h, IntraPeriod: gop,
		SearchArea: 32, RefFrames: 1, IQP: 27, PQP: 28}
	if got := st.spec.CodecConfig(); got != want.CodecConfig() {
		t.Fatalf("fleet reassembles by %+v, want the defaulted %+v", got, want.CodecConfig())
	}
	if len(st.shards) != frames/gop {
		t.Fatalf("stream split into %d shards, want %d", len(st.shards), frames/gop)
	}
	for _, sh := range st.shards {
		ran := sh.job.Spec() // serve's side: defaults applied at admission
		if sh.spec.Workload() != ran.Workload() || ran.Workload() != want.Workload() {
			t.Fatalf("shard %d routed by %+v, session leased by %+v, want %+v",
				sh.idx, sh.spec.Workload(), ran.Workload(), want.Workload())
		}
		cfg := want.CodecConfig()
		if got := ran.CodecConfig(); got != cfg {
			t.Fatalf("shard %d session coded with %+v, want %+v", sh.idx, got, cfg)
		}
		if sh.spec.FrameCount() != ran.FrameCount() || ran.FrameCount() != gop {
			t.Fatalf("shard %d: fleet counts %d frames, serve %d, want %d",
				sh.idx, sh.spec.FrameCount(), ran.FrameCount(), gop)
		}
		if sh.weight != unitWeight(want.Workload(), gop) {
			t.Fatalf("shard %d weight %v, want %v", sh.idx, sh.weight, unitWeight(want.Workload(), gop))
		}
	}
}
