package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"feves"
	"feves/internal/device"
	"feves/internal/h264/codec"
	"feves/internal/platforms"
	"feves/internal/pool"
	"feves/internal/serve"
)

// serveSize fixes the job-service workload: closed-loop clients walking a
// seeded deck of short jobs against one serve.Server over HTTP.
type serveSize struct {
	platform string
	clients  int
	// deck is the number of ops in the seeded deck; the clients deal from
	// it in turn and start over when it runs out. Every ten ops hold
	// exactly simPerTen simulate jobs, so p50 lies inside the simulate
	// mode and p90 inside the encode mode for every seed.
	deck      int
	simPerTen int
	sim       feves.Config // geometry of the simulate jobs (RF 1 and 2 in turn)
	simFrames int
	enc       feves.Config // coding parameters of the encode jobs
	encFrames int
	clips     int // distinct encode inputs
	// traceOps and directOps size the traced pass at -seconds 10.
	traceOps, directOps int
	simSteps            int
}

var serveJobs = serveSize{
	platform: "sysnfk", clients: 2, deck: 100, simPerTen: 7,
	sim: feves.Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}, simFrames: 60,
	enc: feves.Config{Width: 176, Height: 144, SearchArea: 16, RefFrames: 1, IntraPeriod: 10}, encFrames: 10,
	clips: 4, traceOps: 200, directOps: 200, simSteps: 2000,
}

// jobKind is one distinct job of the deck: its spec, its marshalled
// request body and, for an encode job, the reference bitstream.
type jobKind struct {
	name   string
	spec   serve.JobSpec
	body   []byte
	frames int
	ref    []byte // bare codec.Encoder encode of the same frames
}

// opOut is what a client kept of one op for the oracle.
type opOut struct {
	kind      int
	ok        bool
	ms        float64
	id        string
	results   []byte
	bitstream []byte
	// For the traced pass: the op's span and lane, the submit round trip
	// and when the client read the result stream's last byte.
	span, lane int
	submitMs   float64
	eof        time.Time
}

type serveInst struct {
	sz    serveSize
	kinds []jobKind
	clips [][][]byte
	deck  []int // indexes into kinds
	srv   *serve.Server
	ts    *httptest.Server
	outs  []opOut
}

func encodeJobSpec(c feves.Config, yuv []byte) serve.JobSpec {
	return serve.JobSpec{Mode: serve.ModeEncode, Width: c.Width, Height: c.Height,
		SearchArea: c.SearchArea, RefFrames: c.RefFrames, IntraPeriod: c.IntraPeriod, YUV: yuv}
}

// referenceEncode is the oracle's encode: the same frames through a bare
// codec.Encoder, with no framework, service or fleet around it.
func referenceEncode(cc codec.Config, frames [][]byte) ([]byte, error) {
	run, err := encodeFrames(cc, 0, frames, len(frames))
	return run.stream, err
}

func setupServe(sz serveSize, seed uint64) (instance, error) {
	in := &serveInst{sz: sz}
	rng := rand.New(rand.NewSource(int64(seed)))
	var simKinds, encKinds []int
	for rf := 1; rf <= 2; rf++ {
		spec := serve.JobSpec{Mode: serve.ModeSimulate, Width: sz.sim.Width, Height: sz.sim.Height,
			Frames: sz.simFrames, SearchArea: sz.sim.SearchArea, RefFrames: rf}
		simKinds = append(simKinds, len(in.kinds))
		in.kinds = append(in.kinds, jobKind{name: fmt.Sprintf("sim-rf%d", rf), spec: spec, frames: sz.simFrames})
	}
	for c := 0; c < sz.clips; c++ {
		frames := clip(sz.enc.Width, sz.enc.Height, sz.encFrames, seed*1000+uint64(c))
		ref, err := referenceEncode(codecConfig(sz.enc), frames)
		if err != nil {
			return nil, err
		}
		in.clips = append(in.clips, frames)
		encKinds = append(encKinds, len(in.kinds))
		in.kinds = append(in.kinds, jobKind{name: fmt.Sprintf("enc-clip%d", c),
			spec: encodeJobSpec(sz.enc, concat(frames)), frames: sz.encFrames, ref: ref})
	}
	for i := range in.kinds {
		body, err := json.Marshal(in.kinds[i].spec)
		if err != nil {
			return nil, err
		}
		in.kinds[i].body = body
	}
	// The kinds are dealt in turn, so every seed's deck has the same
	// composition; the seed only orders the ops within each ten.
	nSim, nEnc := 0, 0
	for len(in.deck) < sz.deck {
		ten := make([]int, 10)
		for i := range ten {
			if i < sz.simPerTen {
				ten[i] = simKinds[nSim%len(simKinds)]
				nSim++
			} else {
				ten[i] = encKinds[nEnc%len(encKinds)]
				nEnc++
			}
		}
		rng.Shuffle(len(ten), func(i, j int) { ten[i], ten[j] = ten[j], ten[i] })
		in.deck = append(in.deck, ten...)
	}
	in.deck = in.deck[:sz.deck]

	pl, err := platforms.Lookup(sz.platform)
	if err != nil {
		return nil, err
	}
	if in.srv, err = serve.New(serve.Config{Platform: pl}); err != nil {
		return nil, err
	}
	in.ts = httptest.NewServer(in.srv.Handler())
	c := newClient()
	defer c.CloseIdleConnections()
	for _, k := range []int{simKinds[0], encKinds[0]} { // warm-up, discarded
		if out := in.httpOp(c, k, nil, 0); !out.ok {
			in.close()
			return nil, fmt.Errorf("warm-up %s job failed", in.kinds[k].name)
		}
	}
	return in, nil
}

func (in *serveInst) close() {
	in.ts.Close()
	in.srv.Close()
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// fetch issues one request and reads the reply to its last byte.
func fetch(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// httpOp is one op as a caller sees it: submit the job, read its result
// stream to EOF and, for an encode job, fetch the bitstream.
func (in *serveInst) httpOp(c *http.Client, kind int, tr *tracer, lane int) (out opOut) {
	k := &in.kinds[kind]
	t0 := time.Now()
	op := tr.begin("op", k.name, lane, -1)
	out = opOut{kind: kind, span: op, lane: lane}
	defer func() {
		tr.end(op)
		out.ms = ms(time.Since(t0))
	}()

	s := tr.begin("serve.submit", k.name, lane, op)
	code, data, err := fetch(c, http.MethodPost, in.ts.URL+"/jobs", k.body)
	tr.end(s)
	out.submitMs = ms(time.Since(t0))
	var st struct {
		ID string `json:"id"`
	}
	if err != nil || code != http.StatusAccepted || json.Unmarshal(data, &st) != nil {
		return out
	}
	out.id = st.ID
	tr.setID(st.ID, op, s)
	s = tr.begin("serve.results", st.ID, lane, op)
	code, out.results, err = fetch(c, http.MethodGet, in.ts.URL+"/jobs/"+st.ID+"/results", nil)
	tr.end(s)
	out.eof = time.Now()
	if err != nil || code != http.StatusOK {
		return out
	}
	if k.spec.Mode == serve.ModeEncode {
		s = tr.begin("serve.bitstream", st.ID, lane, op)
		code, out.bitstream, err = fetch(c, http.MethodGet, in.ts.URL+"/jobs/"+st.ID+"/bitstream", nil)
		tr.end(s)
		if err != nil || code != http.StatusOK {
			return out
		}
	}
	out.ok = true
	return out
}

// directOp is the same job without HTTP: Submit and Wait in process.
func (in *serveInst) directOp(kind int) opOut {
	out := opOut{kind: kind}
	t0 := time.Now()
	job, err := in.srv.Submit(in.kinds[kind].spec)
	if err == nil {
		out.ok = job.Wait() == serve.StatusDone
		out.bitstream = job.Bitstream()
	}
	out.ms = ms(time.Since(t0))
	return out
}

// deal runs the closed loop: each client takes the deck's next op when its
// previous one completed, until minOps ops have been dealt and more, if
// given, reports false.
func deal(clients int, deck []int, minOps int, more func() bool, do func(client, kind int) opOut) []opOut {
	var mu sync.Mutex
	var outs []opOut
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= minOps && (more == nil || !more()) {
					mu.Unlock()
					return
				}
				kind := deck[next%len(deck)]
				next++
				mu.Unlock()
				out := do(c, kind)
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// httpOpFunc is one op over HTTP on the given client's connection.
type httpOpFunc func(c *http.Client, kind int, tr *tracer, lane int) opOut

// dealHTTP deals over HTTP, one keep-alive connection per client.
func dealHTTP(clients int, deck []int, minOps int, more func() bool, op httpOpFunc, tr *tracer) []opOut {
	conns := make([]*http.Client, clients)
	for i := range conns {
		conns[i] = newClient()
		defer conns[i].CloseIdleConnections()
	}
	return deal(clients, deck, minOps, more,
		func(c, kind int) opOut { return op(conns[c], kind, tr, c) })
}

// measureDeck is the timed window of a service workload: the closed loop
// over HTTP, once through the deck and then until the window closes.
func measureDeck(clients int, deck []int, kinds []jobKind, win time.Duration, op httpOpFunc) ([]opOut, measurement) {
	var outs []opOut
	var m measurement
	m.wall, m.allocated = window(func() {
		start := time.Now()
		outs = dealHTTP(clients, deck, len(deck),
			func() bool { return time.Since(start) < win }, op, nil)
	})
	for _, o := range outs {
		m.attempted++
		if !o.ok {
			m.failed++
			continue
		}
		m.opMs = append(m.opMs, o.ms)
		m.frames += kinds[o.kind].frames
	}
	return outs, m
}

func (in *serveInst) measure(win time.Duration) (m measurement) {
	in.outs, m = measureDeck(in.sz.clients, in.deck, in.kinds, win, in.httpOp)
	return m
}

// verify checks every op's output: a result stream with one well-formed
// line per frame in frame order, and for encode jobs a bitstream that is
// byte-identical to the bare-codec reference, which must itself decode.
func (in *serveInst) verify() (int, string) {
	wrong := 0
	for i := range in.kinds {
		if k := &in.kinds[i]; k.ref != nil {
			if n, err := feves.Verify(k.ref); err != nil || n != k.frames {
				wrong++
			}
		}
	}
	seen := map[string][]byte{}
	for _, o := range in.outs {
		if !o.ok {
			continue // already counted as a failed op
		}
		k := &in.kinds[o.kind]
		if !resultLinesOK(o.results, k.frames) || !bytes.Equal(o.bitstream, k.ref) {
			wrong++
		}
		seen[k.name] = o.bitstream
	}
	return wrong, digestSet(seen)
}

// resultLinesOK parses a JSONL result stream and checks it holds exactly
// frames records numbered from 0.
func resultLinesOK(data []byte, frames int) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	for i := 0; i < frames; i++ {
		var fr serve.FrameResult
		if dec.Decode(&fr) != nil || fr.Frame != i {
			return false
		}
	}
	return !dec.More()
}

func okMs(outs []opOut) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok {
			xs = append(xs, o.ms)
		}
	}
	return xs
}

func (in *serveInst) layers(win time.Duration, tr *tracer, m metricSet) error {
	sz := in.sz
	nOps := scaleCount(sz.traceOps, win)
	epoch := in.srv.Pool().Epoch()
	traced := dealHTTP(sz.clients, in.deck, nOps, nil, in.httpOp, tr)
	repartitions := float64(in.srv.Pool().Epoch() - epoch)
	untraced := dealHTTP(sz.clients, in.deck, nOps, nil, in.httpOp, nil)
	direct := deal(sz.clients, in.deck, scaleCount(sz.directOps, win), nil,
		func(_, kind int) opOut { return in.directOp(kind) })
	for _, o := range append(append(traced, untraced...), direct...) {
		if !o.ok || !bytes.Equal(o.bitstream, in.kinds[o.kind].ref) {
			return fmt.Errorf("traced pass: %s job failed or mismatched its reference", in.kinds[o.kind].name)
		}
	}

	// Server-side phases of the traced ops, from the job's own timestamps,
	// recorded under the client's op span.
	var submitMs, queueMs, runMs, drainMs []float64
	var bodyBytes, bodySeconds float64
	rejected := 0
	for _, o := range traced {
		job, found := in.srv.Job(o.id)
		if !found {
			rejected++
			continue
		}
		st := job.Status()
		submitMs = append(submitMs, o.submitMs)
		queueMs = append(queueMs, ms(st.Started.Sub(st.Submitted)))
		runMs = append(runMs, ms(st.Finished.Sub(*st.Started)))
		drainMs = append(drainMs, ms(o.eof.Sub(*st.Finished)))
		tr.add("serve.queue_wait", o.id, o.lane, o.span, st.Submitted, *st.Started)
		tr.add("serve.run", o.id, o.lane, o.span, *st.Started, *st.Finished)
		if k := &in.kinds[o.kind]; k.ref != nil {
			bodyBytes += float64(len(k.body))
			bodySeconds += o.submitMs / 1e3
		}
	}
	m.setPercentile("serve.submit_ms_p50", submitMs, 0.5)
	m.setPercentile("serve.queue_wait_ms_p50", queueMs, 0.5)
	m.setPercentile("serve.run_ms_p50", runMs, 0.5)
	m.setPercentile("serve.drain_ms_p50", drainMs, 0.5)
	m.set("serve.body_mb_per_s", bodyBytes/1e6/bodySeconds, 0)
	m.set("serve.rejected", float64(rejected), 0)
	m.set("pool.repartitions_per_op", repartitions/float64(len(traced)), len(traced))
	m.setPercentile("serve.direct_ms_p50", okMs(direct), 0.5)
	m.set("serve.http_tax_ratio", median(okMs(untraced))/median(okMs(direct)), len(untraced))
	m.set("trace.overhead_ratio", median(okMs(traced))/median(okMs(untraced)), len(traced))

	acquireUs, err := poolProbe(sz.platform, workloadOf(sz.sim))
	if err != nil {
		return err
	}
	m.setPercentile("pool.acquire_us_p50", acquireUs, 0.5)

	if _, err := codecSurfaces(sz.platform, sz.enc, in.clips[0], sz.encFrames, tr, m); err != nil {
		return err
	}
	if _, err := controlProbes([]simSpec{{sz.platform, sz.sim}}, sz.simSteps, tr, m); err != nil {
		return err
	}
	// The median op is a simulate job, whose session loop is all control
	// path: its share of the op is run time over op time.
	m.set("core.control_share", median(runMs)/median(okMs(traced)), len(runMs))
	m.set("trace.spans", float64(tr.count()), 0)
	return nil
}

func workloadOf(c feves.Config) device.Workload {
	return device.Workload{MBW: c.Width / 16, MBH: c.Height / 16,
		SA: c.SearchArea, NumRF: c.RefFrames, UsableRF: c.RefFrames}
}

// poolProbe times Acquire+Release on a pool that already holds three
// standing leases, so each call re-partitions among four tenants.
func poolProbe(platform string, w device.Workload) ([]float64, error) {
	pl, err := platforms.Lookup(platform)
	if err != nil {
		return nil, err
	}
	p, err := pool.New(pl)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 3; i++ {
		l, err := p.Acquire(w)
		if err != nil {
			return nil, err
		}
		defer l.Release()
	}
	xs := make([]float64, 200)
	for i := range xs {
		t0 := time.Now()
		l, err := p.Acquire(w)
		if err != nil {
			return nil, err
		}
		l.Release()
		xs[i] = us(time.Since(t0))
	}
	return xs, nil
}
