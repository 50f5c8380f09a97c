package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"feves/internal/serve"
	"feves/internal/telemetry"
)

func testFleetServer(t *testing.T, n int) (*Fleet, *httptest.Server) {
	t.Helper()
	tel := telemetry.New(nil)
	f, err := New(Config{Nodes: testNodes(t, n, "sysnfk"), Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() { ts.Close(); f.Close() })
	return f, ts
}

func postJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPStreamLifecycle(t *testing.T) {
	f, ts := testFleetServer(t, 2)
	const w, h, frames, gop = 64, 64, 8, 4
	spec := StreamSpec{
		Name: "clip", Mode: serve.ModeEncode,
		Width: w, Height: h, IntraPeriod: gop, YUV: testYUV(w, h, frames),
	}

	resp := postJSON(t, ts.URL+"/streams", spec)
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /streams = %d: %s", resp.StatusCode, b)
	}
	var doc StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.ID == "" || len(doc.Shards) == 0 {
		t.Fatalf("stream status %+v", doc)
	}

	st, ok := f.Stream(doc.ID)
	if !ok {
		t.Fatalf("stream %s unknown to the coordinator", doc.ID)
	}
	if got := st.Wait(); got != serve.StatusDone {
		t.Fatalf("stream finished %q", got)
	}

	resp, err := http.Get(ts.URL + "/streams/" + doc.ID + "/bitstream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, st.Bitstream()) {
		t.Fatalf("GET bitstream = %d, %d bytes (want %d)", resp.StatusCode, len(body), len(st.Bitstream()))
	}

	resp, err = http.Get(ts.URL + "/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list []StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Status != serve.StatusDone || list[0].Completed != frames {
		t.Fatalf("GET /streams = %+v", list)
	}
}

func TestHTTPJobRoutingAndResults(t *testing.T) {
	_, ts := testFleetServer(t, 2)
	resp := postJSON(t, ts.URL+"/jobs", serve.JobSpec{
		Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 4,
	})
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
	}
	var doc fleetJobStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Node == "" || doc.ID == "" {
		t.Fatalf("job status %+v", doc)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + doc.Node + "/" + doc.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	dec := json.NewDecoder(resp.Body)
	for {
		var fr serve.FrameResult
		if err := dec.Decode(&fr); err != nil {
			break
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("results stream carried %d lines, want 4", lines)
	}

	resp, err = http.Get(ts.URL + "/jobs/ghost/job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node job lookup = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPAdmissionRetryAfterSharedHelper fills the whole cluster and
// checks the 503's Retry-After grows from the cluster-wide backlog through
// the same helper the single-node server uses.
func TestHTTPAdmissionRetryAfterSharedHelper(t *testing.T) {
	tel := telemetry.New(nil)
	nodes := testNodes(t, 2, "cpun")
	for i := range nodes {
		nodes[i].MaxSessions = 1
		nodes[i].QueueDepth = 1
	}
	f, err := New(Config{Nodes: nodes, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	defer func() { ts.Close(); f.Close() }()

	long := serve.JobSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 50000}
	var got503 *http.Response
	for i := 0; i < 12; i++ {
		resp := postJSON(t, ts.URL+"/jobs", long)
		if resp.StatusCode == http.StatusServiceUnavailable {
			got503 = resp
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	if got503 == nil {
		t.Fatal("no submission hit 503 despite full queues everywhere")
	}
	defer got503.Body.Close()
	ra, err := strconv.Atoi(got503.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q: %v", got503.Header.Get("Retry-After"), err)
	}
	if want := serve.RetryAfterSeconds(f.Backlog(), false); ra != want {
		t.Fatalf("Retry-After %d, want the shared helper's cluster-wide figure %d", ra, want)
	}
	if ra < 2 {
		t.Fatalf("Retry-After %d does not reflect a multi-job cluster backlog", ra)
	}
	for _, ref := range f.Jobs() {
		ref.Job.Cancel()
	}
}

func TestHTTPStateAndHealth(t *testing.T) {
	f, ts := testFleetServer(t, 2)
	f.Tick()
	resp, err := http.Get(ts.URL + "/debug/state")
	if err != nil {
		t.Fatal(err)
	}
	var state State
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if state.Clock != 1 || len(state.Nodes) != 2 {
		t.Fatalf("state %+v", state)
	}
	for _, ns := range state.Nodes {
		if ns.Rate <= 0 {
			t.Fatalf("node %s advertises no capacity: %+v", ns.Label, ns)
		}
		if ns.Serve.QueueCap == 0 {
			t.Fatalf("node %s carries no serve document: %+v", ns.Label, ns)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"alive":2`) {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "feves_fleet_nodes_total") {
		t.Fatalf("metrics scrape missing fleet counters: %d", resp.StatusCode)
	}
}

// TestHTTPAdmissionHintsBusyVsDraining pins which failures get which
// Retry-After hint: a placement failure with no alive nodes is retryable
// on the busy path's short estimate (floor 1), while only a draining
// fleet advertises the long drain horizon (2× backlog, floor 5).
func TestHTTPAdmissionHintsBusyVsDraining(t *testing.T) {
	nodes := testNodes(t, 1, "cpun")
	f, err := New(Config{Nodes: nodes, Telemetry: telemetry.New(nil), MissLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	defer func() { ts.Close(); f.Close() }()

	// Kill the only node and let the detector declare it: submissions now
	// fail with ErrNoNodes — transient (a node could join), not draining.
	if !f.Kill("node0") {
		t.Fatal("kill node0 failed")
	}
	for i := 0; i < 3 && !f.State().Nodes[0].Dead; i++ {
		f.Tick()
	}
	job := serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 5}
	resp := postJSON(t, ts.URL+"/jobs", job)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST with no alive nodes = %d, want 503", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(serve.RetryAfterSeconds(f.Backlog(), false)); got != want {
		t.Fatalf("no-nodes Retry-After %q, want busy-path hint %q", got, want)
	}

	// Drain the fleet: the same endpoint must now advertise the longer
	// draining horizon.
	if err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, ts.URL+"/jobs", job)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(serve.RetryAfterSeconds(f.Backlog(), true)); got != want {
		t.Fatalf("draining Retry-After %q, want draining hint %q", got, want)
	}
	if busy, drain := serve.RetryAfterSeconds(0, false), serve.RetryAfterSeconds(0, true); busy >= drain {
		t.Fatalf("hint floors inverted: busy %d, draining %d", busy, drain)
	}
}

// repeat is an endless reader of one byte value.
type repeat byte

func (b repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestHTTPSubmitBodiesBounded posts a spec whose body runs past
// serve.MaxSpecBytes to both submission endpoints: the coordinator must
// stop reading at the bound, answer 413 with a JSON error, and route
// nothing.
func TestHTTPSubmitBodiesBounded(t *testing.T) {
	f, _ := testFleetServer(t, 2)
	for _, path := range []string{"/jobs", "/streams"} {
		t.Run(path, func(t *testing.T) {
			body := io.MultiReader(strings.NewReader(`{"mode":"encode","name":"`),
				io.LimitReader(repeat('a'), serve.MaxSpecBytes))
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized POST %s = %d, want 413", path, rec.Code)
			}
			var doc map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || !strings.Contains(doc["error"], "exceeds") {
				t.Fatalf("413 body is not the JSON error document: %q (%v)", rec.Body.String(), err)
			}
		})
	}
	if len(f.Jobs()) != 0 || len(f.Streams()) != 0 {
		t.Fatal("an oversized submission was admitted")
	}
}

// TestHTTPRejectsHostileDimensions posts frame sizes past
// codec.MaxDimension — including the 2^32 × 2^32 whose I420 size wraps to 0
// and the 2^30 × 2^30 simulation that used to be admitted — and a frame
// count past serve.MaxFrames to both submission endpoints: each is a 400
// whose JSON error names the offending field, never a panic, and nothing is
// routed.
func TestHTTPRejectsHostileDimensions(t *testing.T) {
	f, _ := testFleetServer(t, 2)
	for _, tc := range []struct{ body, field string }{
		{`{"mode":"encode","width":4294967296,"height":4294967296,"intra_period":4,"yuv":"AQ=="}`, "width"},
		{`{"mode":"simulate","width":1073741824,"height":1073741824,"frames":8}`, "width"},
		{`{"mode":"simulate","width":16400,"height":16,"frames":8}`, "width"},
		{`{"mode":"encode","width":16,"height":16400,"intra_period":4,"yuv":"AQ=="}`, "height"},
		{`{"mode":"simulate","width":1920,"height":1088,"frames":1099511627776}`, "frames"},
	} {
		for _, path := range []string{"/jobs", "/streams"} {
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body)))
			var doc map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("POST %s %s: body is not a JSON document: %q (%v)", path, tc.body, rec.Body.String(), err)
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(doc["error"], tc.field) {
				t.Errorf("POST %s %s: got %d %q, want 400 naming %q", path, tc.body, rec.Code, doc["error"], tc.field)
			}
		}
	}
	if len(f.Jobs()) != 0 || len(f.Streams()) != 0 {
		t.Fatal("a hostile spec was admitted")
	}
}
