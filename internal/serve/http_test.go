package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"feves/internal/telemetry"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Platform == nil {
		cfg.Platform = testPlatform(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func TestHTTPSubmitPollAndStream(t *testing.T) {
	tel := telemetry.New(nil)
	_, ts := newTestServer(t, Config{QueueDepth: 16, Telemetry: tel})

	st, resp := postJob(t, ts, simSpec(5))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Mode != ModeSimulate || st.Frames != 5 {
		t.Fatalf("bad status document: %+v", st)
	}

	// The JSONL stream follows the session to completion: exactly one
	// line per frame.
	sresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content-type %q", ct)
	}
	var lines []FrameResult
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var fr FrameResult
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, fr)
	}
	if len(lines) != 5 {
		t.Fatalf("streamed %d lines, want 5", len(lines))
	}
	for i, fr := range lines {
		if fr.Frame != i {
			t.Fatalf("line %d reports frame %d", i, fr.Frame)
		}
	}

	// Poll the terminal status.
	gresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var done JobStatus
	if err := json.NewDecoder(gresp.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || done.Completed != 5 || done.Started == nil || done.Finished == nil {
		t.Fatalf("terminal status: %+v", done)
	}

	// The list endpoint includes the job.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("GET /jobs = %+v", list)
	}

	// The shared registry serves Prometheus text including the serve
	// metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, mresp)); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{"feves_serve_jobs_total", "feves_serve_jobs_finished_total", "feves_frames_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHTTPEncodeBitstreamRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const w, h, frames = 64, 64, 2
	spec := JobSpec{Mode: ModeEncode, Width: w, Height: h, YUV: testYUV(w, h, frames)}
	st, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}

	// Poll until done, then fetch the coded stream.
	deadline := time.After(30 * time.Second)
	for {
		gresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(gresp.Body).Decode(&cur)
		gresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status.terminal() {
			if cur.Status != StatusDone {
				t.Fatalf("encode job finished %q (%s)", cur.Status, cur.Error)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("encode job did not finish")
		case <-time.After(10 * time.Millisecond):
		}
	}
	bresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/bitstream")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("GET bitstream = %d", bresp.StatusCode)
	}
	if stream := readAll(t, bresp); len(stream) == 0 {
		t.Fatal("empty bitstream")
	}
}

func TestHTTPRejectsWhenDrainingWith503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	_, resp := postJob(t, ts, simSpec(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	// The drain hint is derived from the drain horizon, never the old
	// constant "1": with nothing in flight it sits at the 5 s floor.
	if ra := retryAfterValue(t, resp); ra < 5 {
		t.Fatalf("draining Retry-After = %d, want >= 5", ra)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hresp.StatusCode)
	}
	if ra := retryAfterValue(t, hresp); ra < 5 {
		t.Fatalf("draining healthz Retry-After = %d, want >= 5", ra)
	}
}

// retryAfterValue parses the integer Retry-After header of a 503.
func retryAfterValue(t *testing.T, resp *http.Response) int {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatal("503 without Retry-After")
	}
	v, err := strconv.Atoi(h)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", h, err)
	}
	return v
}

// TestHTTPRetryAfterGrowsWithBacklog fills a one-slot server's queue and
// checks the busy 503's Retry-After reflects the jobs ahead of the caller
// instead of the old constant "1".
func TestHTTPRetryAfterGrowsWithBacklog(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1, QueueDepth: 2})

	// Saturate: long jobs occupy the single slot and then the queue.
	// The scheduler drains asynchronously, so submit until rejected.
	var rejected *http.Response
	for i := 0; i < 10; i++ {
		_, resp := postJob(t, ts, simSpec(100000))
		if resp.StatusCode == http.StatusServiceUnavailable {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST = %d", resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("never got a 503 despite a full queue")
	}
	// At rejection the queue is full (2 jobs) plus whatever is running,
	// so the hint must exceed the old constant.
	if ra := retryAfterValue(t, rejected); ra < 2 || ra > 300 {
		t.Fatalf("busy Retry-After = %d, want in [2, 300]", ra)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, resp := postJob(t, ts, JobSpec{Mode: "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, resp := postJob(t, ts, simSpec(100000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	deadline := time.After(30 * time.Second)
	for {
		gresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		err = json.NewDecoder(gresp.Body).Decode(&cur)
		gresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status.terminal() {
			if cur.Status != StatusCanceled {
				t.Fatalf("status %q after cancel", cur.Status)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("job did not reach a terminal state")
		case <-time.After(5 * time.Millisecond):
		}
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

// TestHTTPSubmitBodyBounded posts a spec whose body runs past MaxSpecBytes
// (of unknown length, as a chunked upload would be): the handler must stop
// reading at the bound and answer 413 with a JSON error.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := io.MultiReader(strings.NewReader(`{"mode":"encode","name":"`),
		io.LimitReader(repeat('a'), MaxSpecBytes))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST /jobs = %d, want 413", rec.Code)
	}
	var doc map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || !strings.Contains(doc["error"], "exceeds") {
		t.Fatalf("413 body is not the JSON error document: %q (%v)", rec.Body.String(), err)
	}
	if len(s.Jobs()) != 0 {
		t.Fatal("an oversized submission was admitted")
	}
}

// hostileDimensions are specs whose frame size must be refused before any
// size arithmetic: 2^32 × 2^32 wraps the I420 frame size to 0 (which used
// to panic the YUV length check with a divide by zero), 2^30 × 2^30 used to
// be admitted as a simulation, the next two sit just past
// codec.MaxDimension on one axis each, the fifth asks for 2^40 frames —
// admitted until MaxFrames, it would have held a session slot for years —
// and the last numbers its frames from 2^63-8, where the fleet's shard
// numbering overflowed.
var hostileDimensions = []struct{ body, field string }{
	{`{"mode":"encode","width":4294967296,"height":4294967296,"yuv":"AQ=="}`, "width"},
	{`{"mode":"simulate","width":1073741824,"height":1073741824,"frames":1}`, "width"},
	{`{"mode":"simulate","width":16400,"height":16,"frames":1}`, "width"},
	{`{"mode":"encode","width":16,"height":16400,"yuv":"AQ=="}`, "height"},
	{`{"mode":"simulate","width":1920,"height":1088,"frames":1099511627776}`, "frames"},
	{`{"mode":"simulate","width":64,"height":64,"frames":16,"intra_period":8,"frame_base":9223372036854775800}`, "frame base"},
}

// TestHTTPRejectsHostileDimensions posts them to POST /jobs: each is a 400
// whose JSON error names the offending field, never a panic, and nothing is
// admitted.
func TestHTTPRejectsHostileDimensions(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, tc := range hostileDimensions {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		var doc map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: body is not a JSON document: %q (%v)", tc.body, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(doc["error"], tc.field) {
			t.Errorf("%s: got %d %q, want 400 naming %q", tc.body, rec.Code, doc["error"], tc.field)
		}
	}
	if len(s.Jobs()) != 0 {
		t.Fatal("a hostile spec was admitted")
	}
}
