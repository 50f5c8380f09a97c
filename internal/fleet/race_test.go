// Multi-node churn under the race detector: streams and jobs arrive while
// the virtual clock runs, nodes die on schedule and by surprise, and a new
// node joins mid-flight. The CI fleet-race job runs this file with -race;
// the assertions are about liveness and bookkeeping, not placement, since
// scheduling is intentionally concurrent.
package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"feves/internal/serve"
	"feves/internal/telemetry"
)

func TestChurnNodesDieAndJoinWhileStreaming(t *testing.T) {
	const deathTick, missLimit = 6, 2
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Flight: telemetry.NewFlightRecorder(0)}
	f, err := New(Config{
		Nodes:     testNodes(t, 3, "sysnfk"),
		Telemetry: tel,
		MissLimit: missLimit,
		Deaths:    fmt.Sprintf("die:node1@%d", deathTick),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const w, h, frames, gop = 64, 64, 8, 4
	yuv := testYUV(w, h, frames)
	streamSpec := StreamSpec{
		Name: "churn", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop, YUV: yuv,
	}
	want := soloEncode(t, streamSpec)

	// Clock driver: ticks continuously so the scheduled death fires and is
	// detected while work is in flight.
	stop := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				f.Tick()
			}
		}
	}()

	var wg sync.WaitGroup
	streams := make([]*Stream, 6)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := f.SubmitStream(streamSpec)
			if err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			streams[i] = st
			st.Wait()
		}(i)
	}
	// Plain jobs churn alongside the streams.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := f.Submit(serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 5})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			st.Wait()
		}(i)
	}
	// A node joins while everything above is running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		nc := testNodes(t, 4, "sysnfk")[3]
		nc.Label = "node3"
		if err := f.Join(nc); err != nil {
			t.Errorf("join: %v", err)
		}
	}()

	wg.Wait()
	close(stop)
	clockWG.Wait()
	// A fast host drains the work before the clock reaches the scheduled
	// death; keep ticking until the death tick plus the miss limit has
	// passed, so the declaration asserted below cannot depend on host speed.
	for f.Clock() < deathTick+missLimit {
		f.Tick()
	}

	for i, st := range streams {
		if st == nil {
			continue
		}
		if got := st.Wait(); got != serve.StatusDone {
			t.Fatalf("stream %d finished %q (%s)", i, got, st.Status().Error)
		}
		if b := st.Bitstream(); string(b) != string(want) {
			t.Fatalf("stream %d bitstream diverged under churn (%d vs %d bytes)", i, len(b), len(want))
		}
		assertNoDroppedFrames(t, st, frames)
	}
	state := f.State()
	if len(state.Nodes) != 4 {
		t.Fatalf("fleet has %d nodes after join, want 4", len(state.Nodes))
	}
	var node1Dead bool
	for _, ns := range state.Nodes {
		if ns.Label == "node1" {
			node1Dead = ns.Dead
		}
	}
	if !node1Dead {
		t.Fatalf("scheduled death of node1 never declared: %+v", state.Nodes)
	}
}

// TestChurnSheddingSpeculationBitExact churns streams through a fleet
// whose node0 is saturated by direct (never fleet-routed) work, with
// affinity and speculative re-lease armed and the clock ticking: shedding
// steers placements, stragglers race speculative copies, and every stream
// must still finish bit-exact with zero drops. Run under -race in CI.
func TestChurnSheddingSpeculationBitExact(t *testing.T) {
	nodes := testNodes(t, 3, "sysnfk")
	nodes[0].MaxSessions = 1
	f, err := New(Config{
		Nodes:     nodes,
		Telemetry: &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Flight: telemetry.NewFlightRecorder(0)},
		Affinity:  0.5,
		SpecSlack: 0.6,
		MissLimit: 1 << 20, // no deaths: shedding and speculation only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Saturate node0's single session slot with wide filler encodes.
	srv0, ok := f.Node("node0")
	if !ok {
		t.Fatal("node0 unknown")
	}
	const fw, fh, ffr = 4096, 64, 7
	filler := serve.JobSpec{
		Name: "filler", Mode: serve.ModeEncode,
		Width: fw, Height: fh, IntraPeriod: 4, YUV: testYUV(fw, fh, ffr),
	}
	if _, err := srv0.Submit(filler); err != nil {
		t.Fatal(err)
	}

	const w, h, frames, gop = 64, 64, 16, 4
	streamSpec := StreamSpec{
		Name: "churn", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop, MaxShards: 2,
		YUV: testYUV(w, h, frames),
	}
	want := soloEncode(t, streamSpec)

	stop := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if deaths := f.Tick(); len(deaths) != 0 {
					t.Errorf("nodes declared dead in an all-alive churn: %v", deaths)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	streams := make([]*Stream, 6)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := f.SubmitStream(streamSpec)
			if err != nil {
				t.Errorf("stream %d: %v", i, err)
				return
			}
			streams[i] = st
			st.Wait()
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := f.Submit(serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 5})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			st.Wait()
		}(i)
	}
	wg.Wait()
	close(stop)
	clockWG.Wait()

	for i, st := range streams {
		if st == nil {
			continue
		}
		if got := st.Wait(); got != serve.StatusDone {
			t.Fatalf("stream %d finished %q (%s)", i, got, st.Status().Error)
		}
		if b := st.Bitstream(); string(b) != string(want) {
			t.Fatalf("stream %d bitstream diverged under shedding churn (%d vs %d bytes)", i, len(b), len(want))
		}
		assertNoDroppedFrames(t, st, frames)
	}
	state := f.State()
	if state.Shed == 0 {
		t.Log("no sheds counted this run (filler drained before any placement)")
	}
	t.Logf("shed %d, speculative releases %d (wins %d)", state.Shed, state.SpecReleases, state.SpecWins)
}
