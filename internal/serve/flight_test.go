package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"feves/internal/telemetry"
)

// TestObservabilityEndpointsCaptureDeviceDeath is the observability e2e:
// a tenant's GPU dies mid-run under an armed deadline, and the flight
// recorder served at /debug/flight must hand an operator the whole story —
// a post-mortem bundle naming the failing device, the DeadlineError blame
// trail, and the failover re-lease — while /debug/state shows the shrunk
// pool and /debug/trace carries one lane per tenant.
func TestObservabilityEndpointsCaptureDeviceDeath(t *testing.T) {
	tel := &telemetry.Telemetry{
		Metrics: telemetry.NewRegistry(),
		Trace:   telemetry.NewTraceWriterCap(8192),
		Flight:  telemetry.NewFlightRecorder(32),
	}
	s, err := New(Config{
		Platform:      testPlatform(t),
		MaxSessions:   2,
		QueueDepth:    8,
		Telemetry:     tel,
		DeadlineSlack: 3,
		FaultSpec:     "die:GPU_F@8",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	jobs := make([]*Job, 2)
	for i := range jobs {
		j, err := s.Submit(simSpec(25))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		if st := j.Wait(); st != StatusDone {
			t.Fatalf("job %d finished %q (%s)", i, st, j.Status().Error)
		}
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	getJSON := func(path string, into interface{}) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	// /debug/flight: the post-mortem bundles.
	var doc telemetry.FlightDoc
	getJSON("/debug/flight", &doc)
	if len(doc.Bundles) == 0 {
		t.Fatal("no post-mortem bundles captured across a device death")
	}
	var excluded, failover *telemetry.Bundle
	for i := range doc.Bundles {
		switch doc.Bundles[i].Reason {
		case "device_excluded":
			excluded = &doc.Bundles[i]
		case "pool_failover":
			failover = &doc.Bundles[i]
		}
	}
	if excluded == nil {
		t.Fatalf("no device_excluded bundle; reasons: %v", bundleReasons(doc.Bundles))
	}
	if !strings.Contains(excluded.Detail, "device 0 excluded") {
		t.Errorf("exclusion bundle does not name the dead device: %q", excluded.Detail)
	}
	if excluded.Session == "" {
		t.Error("exclusion bundle carries no session label")
	}
	if failover == nil {
		t.Fatalf("no pool_failover bundle; reasons: %v", bundleReasons(doc.Bundles))
	}
	kinds := map[string]telemetry.Incident{}
	for _, in := range failover.Incidents {
		kinds[in.Kind] = in
	}
	if in, ok := kinds["frame_retry"]; !ok {
		t.Error("failover bundle has no frame_retry incident (the DeadlineError blame)")
	} else if !strings.Contains(in.Detail, "deadline") || in.Device != 0 {
		t.Errorf("frame_retry incident does not blame device 0's deadline: %+v", in)
	}
	if in, ok := kinds["device_down"]; !ok {
		t.Error("failover bundle has no device_down incident")
	} else if in.Device != 0 || !strings.Contains(in.Detail, "GPU_F") {
		t.Errorf("device_down incident does not name device 0 (GPU_F): %+v", in)
	}
	if in, ok := kinds["re_lease"]; !ok {
		t.Error("failover bundle has no re_lease incident — failover pickup missing")
	} else if !strings.Contains(in.Detail, "epoch") {
		t.Errorf("re_lease incident names no epoch: %+v", in)
	}
	if len(failover.Frames) == 0 {
		t.Error("failover bundle captured no frame window")
	}

	// /debug/state: the shrunk pool topology.
	var state State
	getJSON("/debug/state", &state)
	if state.Pool.Capacity != 6 || state.Pool.Up != 5 {
		t.Errorf("pool state capacity/up = %d/%d, want 6/5", state.Pool.Capacity, state.Pool.Up)
	}
	if len(state.Pool.Devices) == 0 || !state.Pool.Devices[0].Down {
		t.Errorf("pool state does not show device 0 down: %+v", state.Pool.Devices)
	}
	if state.QueueCap != 8 || state.MaxSessions != 2 {
		t.Errorf("state queue_cap/max_sessions = %d/%d, want 8/2", state.QueueCap, state.MaxSessions)
	}

	// /debug/trace: one Perfetto lane per tenant.
	trace := getBody(t, srv.URL+"/debug/trace")
	for _, j := range jobs {
		if !strings.Contains(trace, `"name":"`+j.ID()+`"`) {
			t.Errorf("trace snapshot has no process lane for tenant %s", j.ID())
		}
	}

	// /metrics: the per-session LP counters and the bundle counter.
	scrape := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{"feves_lp_solves_total{", "feves_flight_bundles_total{"} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func bundleReasons(bs []telemetry.Bundle) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Reason
	}
	return out
}

// TestFPSGaugeMatchesPairedFrameResult pins the one throughput rule: after
// a frame-parallel job the tenant's feves_fps gauge reads what
// /jobs/{id}/results reported for the same last frame — 2/pair makespan. It
// used to read 1/τtot, about half of it.
func TestFPSGaugeMatchesPairedFrameResult(t *testing.T) {
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
	s, err := New(Config{Platform: testPlatform(t), MaxSessions: 1, QueueDepth: 1, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := simSpec(12)
	spec.FrameParallel = true
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Wait(); st != StatusDone {
		t.Fatalf("job finished %q (%s)", st, j.Status().Error)
	}
	rs := j.Results()
	last := rs[len(rs)-1]
	if last.PairSeconds == 0 {
		t.Fatalf("last frame of a 12-frame frame-parallel job ran unpaired: %+v", last)
	}
	if got := tel.Metrics.Gauge("feves_fps", "", "session", j.ID()).Value(); got != last.FPS {
		t.Errorf("feves_fps = %v, /results says %v fps for frame %d (1/τtot is %v)",
			got, last.FPS, last.Frame, 1/last.Seconds)
	}
}
