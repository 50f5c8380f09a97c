package bench

import (
	"bytes"
	"fmt"
	"time"

	"feves"
	"feves/internal/fleet"
	"feves/internal/platforms"
	"feves/internal/serve"
	"feves/internal/video"
)

// fleetNodes builds n identical nodes over fresh sysnfk platform copies,
// with distinct deterministic jitter seeds — the same convention
// cmd/feves-fleet uses for its -nodes flag.
func fleetNodes(n int) []fleet.NodeConfig {
	cfgs := make([]fleet.NodeConfig, n)
	for i := range cfgs {
		pl, err := platforms.Lookup("sysnfk")
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		pl.Seed = uint64(1000 + i)
		cfgs[i] = fleet.NodeConfig{
			Label:       fmt.Sprintf("node%d", i),
			Platform:    pl,
			MaxSessions: 8,
			QueueDepth:  32,
		}
	}
	return cfgs
}

// fleetSessionCounts routes `sessions` identical 1080p jobs across an
// n-node fleet through the real coordinator — the third-level LP over
// per-node calibrated rates — and returns how many landed on each node.
// The jobs are long enough that all six routing decisions happen before
// any job completes and releases its load, then they are cancelled: this
// phase measures placement, not encoding.
func fleetSessionCounts(n, sessions int) []int {
	f, err := fleet.New(fleet.Config{Nodes: fleetNodes(n)})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	defer f.Close()
	counts := make([]int, n)
	jobs := make([]*fleet.Stream, 0, sessions)
	for i := 0; i < sessions; i++ {
		st, err := f.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 1920, Height: 1088,
			Frames: 500, SearchArea: 32, RefFrames: 1,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		jobs = append(jobs, st)
	}
	for _, st := range jobs {
		var idx int
		fmt.Sscanf(st.Status().Shards[0].Node, "node%d", &idx)
		counts[idx]++
		st.Cancel()
	}
	return counts
}

// lockstepAggregate opens k concurrent lock-stepped 1080p simulation
// sessions on one SysNFK pool — the V2 protocol — and returns their
// summed steady-state fps (mean over the last half of 20 frames each).
func lockstepAggregate(k int) float64 {
	if k == 0 {
		return 0
	}
	p, err := feves.NewPool(feves.SysNFK())
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	sessions := make([]*feves.Session, k)
	for i := range sessions {
		s, err := p.NewSimulationSession(cfg1080p(32, 1))
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		sessions[i] = s
	}
	const frames = 20
	secs := make([]float64, k)
	n := make([]int, k)
	for fr := 0; fr < frames; fr++ {
		for i, s := range sessions {
			r, err := s.Step()
			if err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
			if fr >= frames/2 && !r.Intra && r.Seconds > 0 {
				secs[i] += r.Seconds
				n[i]++
			}
		}
	}
	var aggregate float64
	for i, s := range sessions {
		if secs[i] > 0 {
			aggregate += float64(n[i]) / secs[i]
		}
		s.Close()
	}
	return aggregate
}

// FleetScaling measures V7's first half: aggregate simulated throughput
// of a fixed six-session 1080p workload as the fleet grows from one node
// to four. The fleet coordinator's third-level LP places the sessions;
// each node's pool then partitions its devices among the sessions it
// received (second-level LP), measured with V2's lock-step protocol so
// every node runs fully loaded.
func FleetScaling() Table {
	t := Table{
		Title:   "V7: aggregate fps vs node count (6 concurrent 1080p sessions, SysNFK nodes)",
		Columns: []string{"nodes", "aggregate fps", "sessions per node"},
	}
	const sessions = 6
	for n := 1; n <= 4; n++ {
		counts := fleetSessionCounts(n, sessions)
		var aggregate float64
		spread := ""
		for i, k := range counts {
			aggregate += lockstepAggregate(k)
			if i > 0 {
				spread += " "
			}
			spread += fmt.Sprintf("%d", k)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", aggregate), spread,
		})
	}
	return t
}

// fleetDeathSpec is the shared stream of FleetDeath's two runs: small
// enough to encode functionally in a benchmark, long enough for three
// GOP shards.
func fleetDeathSpec() (fleet.StreamSpec, int) {
	const w, h, frames, gop = 128, 128, 24, 8
	var buf bytes.Buffer
	src := video.NewSynthetic(w, h, frames, 7)
	for i := 0; i < frames; i++ {
		if err := video.WriteYUV(&buf, src.FrameAt(i)); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	return fleet.StreamSpec{
		Name: "death", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop, YUV: buf.Bytes(),
	}, frames
}

// fleetDeathReference encodes the stream on one whole sysnfk platform —
// the single-node baseline every sharded run must match byte for byte.
func fleetDeathReference(spec fleet.StreamSpec) []byte {
	enc, err := feves.NewEncoder(feves.Config{Width: spec.Width, Height: spec.Height,
		IntraPeriod: spec.IntraPeriod}, feves.SysNFK())
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	fb := spec.Width * spec.Height * 3 / 2
	for i := 0; i*fb < len(spec.YUV); i++ {
		if _, err := enc.EncodeYUV(spec.YUV[i*fb : (i+1)*fb]); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	return enc.Bitstream()
}

// FleetDeath measures V7's second half: what a mid-stream node death
// costs. A 24-frame, three-shard encode runs twice across three nodes —
// once clean, once with the node holding the last shard killed right
// after placement. The dead node's shard replays from its leading IDR on
// a survivor; the cost is the replayed frames and the detection latency,
// never correctness: both runs must equal the single-node reference with
// zero dropped frames.
func FleetDeath() Table {
	t := Table{
		Title:   "V7: cost of a mid-stream node death (24-frame encode, 3 GOP shards, 3 SysNFK nodes)",
		Columns: []string{"run", "status", "shards re-leased", "frames replayed", "detect [ticks]", "bit-exact", "dropped"},
	}
	spec, frames := fleetDeathSpec()
	want := fleetDeathReference(spec)

	for _, kill := range []bool{false, true} {
		f, err := fleet.New(fleet.Config{Nodes: fleetNodes(3), MissLimit: 2})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		st, err := f.SubmitStream(spec)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		detectTicks := 0
		if kill {
			doc := st.Status()
			f.Kill(doc.Shards[len(doc.Shards)-1].Node)
			// Tick the virtual clock until the missed-beat detector declares
			// the death (MissLimit ticks after the last heartbeat).
			for len(f.Tick()) == 0 {
				detectTicks++
				time.Sleep(time.Millisecond)
			}
			detectTicks++
		}
		status := st.Wait()

		releases, replayed := 0, 0
		for _, sh := range st.Status().Shards {
			if sh.Attempts > 1 {
				releases++
				replayed += (sh.Attempts - 1) * sh.Frames
			}
		}
		dropped := frames - len(st.Results())
		name := "clean"
		if kill {
			name = "node death mid-stream"
		}
		t.Rows = append(t.Rows, []string{
			name, string(status),
			fmt.Sprintf("%d", releases), fmt.Sprintf("%d", replayed),
			fmt.Sprintf("%d", detectTicks),
			fmt.Sprintf("%v", bytes.Equal(st.Bitstream(), want)),
			fmt.Sprintf("%d", dropped),
		})
		f.Close()
	}
	return t
}

// syntheticYUV renders frames of the deterministic synthetic source as one
// concatenated planar buffer — the JobSpec/StreamSpec input format.
func syntheticYUV(w, h, frames int) []byte {
	var buf bytes.Buffer
	src := video.NewSynthetic(w, h, frames, 7)
	for i := 0; i < frames; i++ {
		if err := video.WriteYUV(&buf, src.FrameAt(i)); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
	}
	return buf.Bytes()
}

// FleetShed measures V8: how the queue-aware router treats an
// alive-but-backlogged node. node0 takes three heavy 1080p simulations
// submitted directly to its server (two session slots, so one queues and
// later arrivals wait behind it) — load the coordinator never routed.
// Eight 30-frame probe jobs then arrive through the coordinator; the table
// reports where they landed, the shed count (placements that avoided the
// node a capacity-only argmin would have picked), aggregate probe
// throughput and the worst (p99) probe latency.
func FleetShed() Table {
	t := Table{
		Title:   "V8: routing around a deep-queued node (8 x 30-frame 1080p probes, 2 SysNFK nodes)",
		Columns: []string{"router", "probes on deep node", "shed", "aggregate fps", "p99 latency [ms]"},
	}
	nodes := fleetNodes(2)
	nodes[0].MaxSessions = 2
	f, err := fleet.New(fleet.Config{Nodes: nodes, MissLimit: 1 << 20})
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	defer f.Close()
	srv0, ok := f.Node("node0")
	if !ok {
		panic("bench: node0 unknown")
	}
	deep := make([]*serve.Job, 0, 3)
	for i := 0; i < 3; i++ {
		j, err := srv0.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 3000,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		deep = append(deep, j)
	}
	const probes, probeFrames = 8, 30
	jobs := make([]*fleet.Stream, 0, probes)
	starts := make([]time.Time, 0, probes)
	batchStart := time.Now()
	for i := 0; i < probes; i++ {
		st, err := f.Submit(serve.JobSpec{
			Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: probeFrames,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		jobs = append(jobs, st)
		starts = append(starts, time.Now())
	}
	onDeep := 0
	var worst time.Duration
	for i, st := range jobs {
		st.Wait()
		if lat := time.Since(starts[i]); lat > worst {
			worst = lat
		}
		if st.Status().Shards[0].Node == "node0" {
			onDeep++
		}
	}
	batch := time.Since(batchStart).Seconds()
	t.Rows = append(t.Rows, []string{
		"queue-aware",
		fmt.Sprintf("%d/%d", onDeep, probes),
		fmt.Sprintf("%d", f.State().Shed),
		fmt.Sprintf("%.1f", float64(probes*probeFrames)/batch),
		fmt.Sprintf("%.0f", float64(worst.Milliseconds())),
	})
	for _, j := range deep {
		j.Cancel()
	}
	return t
}
