package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"feves"
	"feves/internal/fleet"
	"feves/internal/platforms"
	"feves/internal/serve"
)

// fleetSize fixes the fleet workload: closed-loop clients submitting short
// encode streams that the coordinator shards across its nodes.
type fleetSize struct {
	nodes    []string
	affinity float64
	clients  int
	deck     int // ops in the seeded deck
	enc      feves.Config
	frames   int // per stream; frames / IntraPeriod GOPs, one shard each
	clips    int // distinct streams
	poll     time.Duration
	// traceOps and directOps size the traced pass at -seconds 10.
	traceOps, directOps int
	simSteps            int
}

var fleetStreams = fleetSize{
	nodes: []string{"syshk", "sysnff", "sysnf"}, affinity: 0.25,
	clients: 2, deck: 16,
	enc:    feves.Config{Width: 176, Height: 144, SearchArea: 16, RefFrames: 1, IntraPeriod: 10},
	frames: 20, clips: 4, poll: 5 * time.Millisecond,
	traceOps: 24, directOps: 16, simSteps: 2000,
}

type fleetInst struct {
	sz    fleetSize
	kinds []jobKind // one per distinct stream; spec unused, body is the StreamSpec
	specs []fleet.StreamSpec
	clips [][][]byte
	deck  []int
	fl    *fleet.Fleet
	ts    *httptest.Server
	outs  []opOut
}

func setupFleet(sz fleetSize, seed uint64) (instance, error) {
	in := &fleetInst{sz: sz}
	rng := rand.New(rand.NewSource(int64(seed)))
	for c := 0; c < sz.clips; c++ {
		frames := clip(sz.enc.Width, sz.enc.Height, sz.frames, seed*1000+uint64(c))
		ref, err := referenceEncode(codecConfig(sz.enc), frames)
		if err != nil {
			return nil, err
		}
		spec := fleet.StreamSpec{Mode: serve.ModeEncode, Width: sz.enc.Width, Height: sz.enc.Height,
			SearchArea: sz.enc.SearchArea, RefFrames: sz.enc.RefFrames,
			IntraPeriod: sz.enc.IntraPeriod, YUV: concat(frames)}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		in.clips = append(in.clips, frames)
		in.specs = append(in.specs, spec)
		in.kinds = append(in.kinds, jobKind{name: fmt.Sprintf("stream-clip%d", c),
			body: body, frames: sz.frames, ref: ref})
	}
	for len(in.deck) < sz.deck {
		in.deck = append(in.deck, rng.Perm(sz.clips)...)
	}
	in.deck = in.deck[:sz.deck]

	cfg := fleet.Config{Affinity: sz.affinity}
	for i, name := range sz.nodes {
		pl, err := platforms.Lookup(name)
		if err != nil {
			return nil, err
		}
		cfg.Nodes = append(cfg.Nodes, fleet.NodeConfig{Label: fmt.Sprintf("node%d", i), Platform: pl})
	}
	var err error
	if in.fl, err = fleet.New(cfg); err != nil {
		return nil, err
	}
	in.ts = httptest.NewServer(in.fl.Handler())
	c := newClient()
	defer c.CloseIdleConnections()
	if out := in.httpOp(c, in.deck[0], nil, 0); !out.ok { // warm-up, discarded
		in.close()
		return nil, fmt.Errorf("warm-up stream failed")
	}
	return in, nil
}

func (in *fleetInst) close() {
	in.ts.Close()
	in.fl.Close()
}

// httpOp is one stream as a caller sees it: submit, poll the status
// document until it is terminal, fetch the reassembled bitstream.
func (in *fleetInst) httpOp(c *http.Client, kind int, tr *tracer, lane int) (out opOut) {
	k := &in.kinds[kind]
	t0 := time.Now()
	op := tr.begin("op", k.name, lane, -1)
	out = opOut{kind: kind, span: op, lane: lane}
	defer func() {
		tr.end(op)
		out.ms = ms(time.Since(t0))
	}()

	s := tr.begin("fleet.submit", k.name, lane, op)
	code, data, err := fetch(c, http.MethodPost, in.ts.URL+"/streams", k.body)
	tr.end(s)
	out.submitMs = ms(time.Since(t0))
	var st struct {
		ID     string       `json:"id"`
		Status serve.Status `json:"status"`
	}
	if err != nil || code != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
		return out
	}
	out.id = st.ID
	tr.setID(st.ID, op, s)
	s = tr.begin("fleet.wait", st.ID, lane, op)
	for st.Status == serve.StatusRunning || st.Status == serve.StatusQueued {
		time.Sleep(in.sz.poll)
		code, data, err = fetch(c, http.MethodGet, in.ts.URL+"/streams/"+st.ID, nil)
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &st) != nil {
			tr.end(s)
			return out
		}
	}
	tr.end(s)
	out.eof = time.Now()
	if st.Status != serve.StatusDone {
		return out
	}
	s = tr.begin("fleet.fetch", st.ID, lane, op)
	code, out.bitstream, err = fetch(c, http.MethodGet, in.ts.URL+"/streams/"+st.ID+"/bitstream", nil)
	tr.end(s)
	out.ok = err == nil && code == http.StatusOK
	return out
}

// directOp is the same stream without HTTP: SubmitStream and Wait.
func (in *fleetInst) directOp(kind, maxShards int) opOut {
	out := opOut{kind: kind}
	spec := in.specs[kind]
	spec.MaxShards = maxShards
	t0 := time.Now()
	st, err := in.fl.SubmitStream(spec)
	if err == nil {
		out.ok = st.Wait() == serve.StatusDone
		out.bitstream = st.Bitstream()
	}
	out.ms = ms(time.Since(t0))
	return out
}

func (in *fleetInst) measure(win time.Duration) (m measurement) {
	in.outs, m = measureDeck(in.sz.clients, in.deck, in.kinds, win, in.httpOp)
	return m
}

// verify checks that every reassembled stream is byte-identical to the
// single bare-codec encode of the same frames, which must itself decode
// to the full frame count.
func (in *fleetInst) verify() (int, string) {
	wrong := 0
	for i := range in.kinds {
		if n, err := feves.Verify(in.kinds[i].ref); err != nil || n != in.kinds[i].frames {
			wrong++
		}
	}
	seen := map[string][]byte{}
	for _, o := range in.outs {
		if !o.ok {
			continue // already counted as a failed op
		}
		k := &in.kinds[o.kind]
		if !bytes.Equal(o.bitstream, k.ref) {
			wrong++
		}
		seen[k.name] = o.bitstream
	}
	return wrong, digestSet(seen)
}

func (in *fleetInst) layers(win time.Duration, tr *tracer, m metricSet) error {
	sz := in.sz
	nOps := scaleCount(sz.traceOps, win)
	nDirect := scaleCount(sz.directOps, win)
	router0 := in.fl.State().Router
	traced := dealHTTP(sz.clients, in.deck, nOps, nil, in.httpOp, tr)
	router1 := in.fl.State().Router
	untraced := dealHTTP(sz.clients, in.deck, nOps, nil, in.httpOp, nil)
	direct := deal(sz.clients, in.deck, nDirect, nil,
		func(_, kind int) opOut { return in.directOp(kind, 0) })
	single := deal(sz.clients, in.deck, nDirect, nil,
		func(_, kind int) opOut { return in.directOp(kind, 1) })
	for _, o := range append(append(append(traced, untraced...), direct...), single...) {
		if !o.ok || !bytes.Equal(o.bitstream, in.kinds[o.kind].ref) {
			return fmt.Errorf("traced pass: %s failed or mismatched its reference", in.kinds[o.kind].name)
		}
	}

	var submitMs, runMs, fetchMs []float64
	var shards, releases float64
	var results []frameOut
	// Completion order varies run to run; the float sums below must not.
	sort.SliceStable(traced, func(i, j int) bool { return traced[i].kind < traced[j].kind })
	for _, o := range traced {
		st, found := in.fl.Stream(o.id)
		if !found {
			continue
		}
		doc := st.Status()
		submitMs = append(submitMs, o.submitMs)
		runMs = append(runMs, ms(doc.Finished.Sub(doc.Submitted)))
		tr.add("fleet.run", o.id, o.lane, o.span, doc.Submitted, *doc.Finished)
		shards += float64(len(doc.Shards))
		for _, sh := range doc.Shards {
			releases += float64(sh.Attempts - 1)
		}
		for _, r := range st.Results() {
			results = append(results, frameOut{seconds: r.Seconds, pairSeconds: r.PairSeconds, bits: r.Bits, psnrY: r.PSNRY})
		}
	}
	for _, s := range tr.spans {
		if s.Name == "fleet.fetch" {
			fetchMs = append(fetchMs, ms(s.End-s.Start))
		}
	}
	routes := float64(router1.Routes - router0.Routes)
	solves := float64(router1.Solver.Solves - router0.Solver.Solves)
	m.setPercentile("fleet.submit_ms_p50", submitMs, 0.5)
	m.setPercentile("fleet.run_ms_p50", runMs, 0.5)
	m.setPercentile("fleet.fetch_ms_p50", fetchMs, 0.5)
	m.setPercentile("fleet.direct_ms_p50", okMs(direct), 0.5)
	m.setPercentile("fleet.single_node_ms_p50", okMs(single), 0.5)
	m.set("fleet.shard_speedup", median(okMs(single))/median(okMs(direct)), len(direct))
	m.set("fleet.shards_per_stream", shards/float64(len(traced)), len(traced))
	m.set("fleet.releases", releases, 0)
	if routes > 0 {
		m.set("fleet.route_lp_rate", float64(router1.LPRoutes-router0.LPRoutes)/routes, int(routes))
	}
	if solves > 0 {
		m.set("fleet.route_warm_rate",
			float64(router1.Solver.WarmSolves-router0.Solver.WarmSolves)/solves, int(solves))
	}
	m.set("fleet.affinity_hits", float64(router1.AffinityHits-router0.AffinityHits), 0)
	m.set("trace.overhead_ratio", median(okMs(traced))/median(okMs(untraced)), len(traced))

	if _, err := codecSurfaces(sz.nodes[0], sz.enc, in.clips[0], sz.frames, tr, m); err != nil {
		return err
	}
	// The streams' own model and coding outputs replace the single-clip
	// replay's: every traced stream's frames, as the shards reported them.
	vfps, bits, psnr := exact(results)
	m.set("model.virtual_fps", vfps, 0)
	m.set("codec.bits_per_frame", bits, 0)
	m.set("codec.psnr_y_db", psnr, 0)

	ctl, err := controlProbes([]simSpec{{sz.nodes[0], sz.enc}}, sz.simSteps, tr, m)
	if err != nil {
		return err
	}
	m.set("core.control_share",
		ctl.stepUs/1e3*float64(sz.frames)/median(okMs(untraced)), sz.simSteps)
	m.set("trace.spans", float64(tr.count()), 0)
	return nil
}
