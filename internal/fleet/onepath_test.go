// One way into the fleet: a plain job is a stream of one shard, so it
// survives its node's death exactly as a shard does, a caller's cancel of a
// node-local job ends the stream it serves instead of respawning it, and
// the coordinator's goroutines end with its lifetime.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"feves/internal/platforms"
	"feves/internal/serve"
	"feves/internal/telemetry"
)

// longSimulate outlasts a Kill+Tick or a cancel issued right after
// admission, on any host.
var longSimulate = serve.JobSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 20000}

// getStatus fetches a stream's status document over HTTP.
func getStatus(t *testing.T, url string) StreamStatus {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPlainJobSurvivesHostDeath kills the node running a plain job and
// lets the heartbeat detector declare it: the job re-leases to the
// survivor and ends done on its second attempt, through Submit and through
// POST /jobs alike.
func TestPlainJobSurvivesHostDeath(t *testing.T) {
	spec := longSimulate
	// Long enough to be running when its host is killed, short enough to
	// replay in full on the survivor.
	spec.Frames = 1000
	submits := []struct {
		name   string
		submit func(*Fleet, *httptest.Server) *Stream
	}{
		{"Submit", func(f *Fleet, _ *httptest.Server) *Stream {
			st, err := f.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"POST /jobs", func(f *Fleet, ts *httptest.Server) *Stream {
			resp := postJSON(t, ts.URL+"/jobs", spec)
			defer resp.Body.Close()
			var doc StreamStatus
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /jobs = %d (%v)", resp.StatusCode, err)
			}
			st, ok := f.Stream(doc.ID)
			if !ok {
				t.Fatalf("POST /jobs answered %q, unknown to the coordinator", doc.ID)
			}
			return st
		}},
	}
	for _, sub := range submits {
		t.Run(sub.name, func(t *testing.T) {
			f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk"), Telemetry: telemetry.New(nil), MissLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(f.Handler())
			defer func() { ts.Close(); f.Close() }()
			st := sub.submit(f, ts)
			host := st.node()
			if !f.Kill(host) {
				t.Fatalf("kill %s failed", host)
			}
			if died := f.Tick(); len(died) != 1 || died[0] != host {
				t.Fatalf("tick declared %v, want [%s]", died, host)
			}
			if got := st.Wait(); got != serve.StatusDone {
				t.Fatalf("plain job finished %q after its host died (%s)", got, st.Status().Error)
			}
			doc := getStatus(t, ts.URL+"/streams/"+st.ID())
			if sh := doc.Shards[0]; doc.Status != serve.StatusDone || sh.Attempts != 2 || sh.Node == host || sh.Node == "" {
				t.Fatalf("status after %s died: %+v, want done on the survivor after 2 attempts", host, doc)
			}
			if len(st.Results()) != spec.Frames {
				t.Fatalf("results cover %d frames, want %d", len(st.Results()), spec.Frames)
			}
		})
	}
}

// TestCancelNodeJobCancelsStream cancels the node-local job behind a shard
// on a node the coordinator trusts — by Job.Cancel and by DELETE
// /jobs/{node}/{id} — and requires the stream to end canceled on its first
// attempt instead of re-leasing the job it was asked to stop.
func TestCancelNodeJobCancelsStream(t *testing.T) {
	streams := []struct {
		name   string
		spec   StreamSpec
		victim int
	}{
		{"one shard", StreamSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 20000, MaxShards: 1}, 0},
		{"shard 1 of 3", StreamSpec{Mode: serve.ModeSimulate, Width: 1920, Height: 1088, Frames: 30000,
			IntraPeriod: 10000, MaxShards: 3}, 1},
	}
	cancels := []struct {
		name   string
		cancel func(t *testing.T, ts *httptest.Server, ref JobRef)
	}{
		{"Job.Cancel", func(_ *testing.T, _ *httptest.Server, ref JobRef) { ref.Job.Cancel() }},
		{"DELETE /jobs", func(t *testing.T, ts *httptest.Server, ref JobRef) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+ref.Node+"/"+ref.Job.ID(), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE = %d", resp.StatusCode)
			}
		}},
	}
	for _, sc := range streams {
		for _, c := range cancels {
			t.Run(sc.name+"/"+c.name, func(t *testing.T) {
				f, err := New(Config{Nodes: testNodes(t, 3, "sysnfk"), Telemetry: telemetry.New(nil)})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(f.Handler())
				defer func() { ts.Close(); f.Close() }()
				st, err := f.SubmitStream(sc.spec)
				if err != nil {
					t.Fatal(err)
				}
				sh := st.Status().Shards[sc.victim]
				ref, ok := f.Job(sh.Node, sh.Job)
				if !ok {
					t.Fatalf("shard %d's job %s/%s unknown", sc.victim, sh.Node, sh.Job)
				}
				c.cancel(t, ts, ref)
				if got := st.Wait(); got != serve.StatusCanceled {
					t.Fatalf("stream finished %q after its node job was canceled, want canceled", got)
				}
				for _, sh := range getStatus(t, ts.URL+"/streams/"+st.ID()).Shards {
					if sh.Attempts != 1 {
						t.Fatalf("shard %d leased %d times: a canceled job was respawned", sh.Index, sh.Attempts)
					}
				}
			})
		}
	}
}

// TestPlainEncodeJobMatchesBareServer runs one encode spec that opens at a
// non-zero global frame through the fleet and on a bare serve.Server: the
// fleet's one-shard stream keeps the job's FrameBase, so the bitstreams are
// byte-identical.
func TestPlainEncodeJobMatchesBareServer(t *testing.T) {
	const w, h, frames = 64, 64, 12
	spec := serve.JobSpec{Name: "clip", Mode: serve.ModeEncode, Width: w, Height: h,
		IntraPeriod: 4, FrameBase: 8, YUV: testYUV(w, h, frames)}

	pl, err := platforms.Lookup("sysnfk")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	job, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := job.Wait(); got != serve.StatusDone {
		t.Fatalf("bare server job finished %q", got)
	}

	f, err := New(Config{Nodes: testNodes(t, 2, "sysnfk")})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Wait(); got != serve.StatusDone {
		t.Fatalf("fleet job finished %q (%s)", got, st.Status().Error)
	}
	if want, got := job.Bitstream(), st.Bitstream(); len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("fleet bitstream (%d bytes) differs from the bare server's (%d bytes)", len(got), len(want))
	}
	if rs := st.Results(); len(rs) != frames || rs[0].Frame != spec.FrameBase {
		t.Fatalf("fleet results start at frame %d (%d rows), want %d (%d rows)", rs[0].Frame, len(rs), spec.FrameBase, frames)
	}
}

// TestFleetLifetimeSoak runs a few hundred mixed plain jobs and streams
// through one fleet — with cancels, node deaths and re-leases, joins and
// rejected specs mixed in — then closes it. Every goroutine the fleet
// started must end, a second Close is a no-op, and admission after Close
// is ErrDraining.
func TestFleetLifetimeSoak(t *testing.T) {
	const w, h = 64, 64
	clip := StreamSpec{Name: "soak", Mode: serve.ModeEncode, Width: w, Height: h, IntraPeriod: 4, YUV: testYUV(w, h, 8)}
	small := serve.JobSpec{Mode: serve.ModeSimulate, Width: 640, Height: 368, Frames: 3}

	// The codec's shared row pool lives for the process; start it before
	// taking the baseline.
	warm, err := New(Config{Nodes: testNodes(t, 1, "sysnfk")})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := warm.SubmitStream(clip); err != nil || st.Wait() != serve.StatusDone {
		t.Fatalf("warm-up stream: %v", err)
	}
	warm.Close()
	start := runtime.NumGoroutine()

	nodes := testNodes(t, 3, "sysnfk")
	for i := range nodes {
		nodes[i].MaxSessions = 4
	}
	f, err := New(Config{Nodes: nodes, Telemetry: telemetry.New(nil), MissLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	var live []*Stream
	joined := len(nodes)
	for i := 0; i < 300; i++ {
		var st *Stream
		switch i % 10 {
		case 0, 1, 2, 3:
			st, err = f.Submit(small)
		case 4, 5:
			st, err = f.SubmitStream(clip)
		case 6:
			if _, err := f.Submit(serve.JobSpec{Mode: serve.ModeSimulate, Width: 60, Height: 64, Frames: 2}); err == nil {
				t.Fatal("a 60-pixel-wide spec was admitted")
			}
			continue
		case 7: // cancel: the stream, or the node job behind it
			if st, err = f.Submit(longSimulate); err != nil {
				t.Fatal(err)
			}
			if i%20 == 7 {
				st.Cancel()
			} else if ref, ok := f.Job(st.node(), st.Status().Shards[0].Job); ok {
				ref.Job.Cancel()
			}
			// Waiting here keeps the next op's node death from reaching the
			// canceled job's node first, which would re-lease it.
			if got := st.Wait(); got != serve.StatusCanceled {
				t.Fatalf("%s finished %q, want canceled", st.ID(), got)
			}
			continue
		case 8: // a node dies under running work and a fresh one joins
			if st, err = f.SubmitStream(clip); err != nil {
				t.Fatal(err)
			}
			f.Kill(st.node())
			f.Tick()
			nc := testNodes(t, 1, "sysnfk")[0]
			nc.Label = fmt.Sprintf("node%d", joined)
			joined++
			if err := f.Join(nc); err != nil {
				t.Fatal(err)
			}
		case 9: // keep the queues shallow: everything admitted so far ends
			for _, st := range live {
				if got := st.Wait(); got != serve.StatusDone {
					t.Fatalf("%s finished %q (%s)", st.ID(), got, st.Status().Error)
				}
			}
			live = live[:0]
			continue
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		live = append(live, st)
	}
	f.Close()
	f.Close()
	if _, err := f.Submit(small); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("Submit after Close = %v, want ErrDraining", err)
	}
	if _, err := f.SubmitStream(clip); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("SubmitStream after Close = %v, want ErrDraining", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() > start {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before the fleet:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
