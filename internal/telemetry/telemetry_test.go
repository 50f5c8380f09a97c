package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTelemetryIsSafe is the zero-cost-when-disabled contract: every
// hook must be callable on the nil receiver.
func TestNilTelemetryIsSafe(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports Enabled")
	}
	tel.FrameStart(1, false)
	tel.FrameEnd(FrameRecord{Frame: 1, Tot: 0.01}, []Span{{Resource: "r", Label: "ME@0", End: 0.01}}, 0.01)
	tel.Audit(AuditRecord{Frame: 1, PredTot: 0.01, Measured: 0.011})
	tel.Mark("idr", 8)
	tel.Incident("device_down", 1, 0, "test")
	_ = tel.CaptureBundle("test", 1, "")
	_ = tel.ForSession("s")
}

func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	tel := &Telemetry{Events: NewEventLog(&buf)}
	tel.FrameStart(3, false)
	tel.FrameEnd(FrameRecord{Frame: 3, Tau1: 0.004, Tau2: 0.007, Tot: 0.01,
		PredTot: 0.0095, RStarDev: 1, M: []int{30, 38}, SchedOverhead: 0.0002}, nil, 0.01)
	tel.Audit(AuditRecord{Frame: 3, Balancer: "lp", PredTot: 0.0095, Measured: 0.01,
		Drift: []DeviceDrift{{Device: 0, Module: "ME", Before: 1e-4, After: 1.1e-4, Rel: 0.1}}})
	tel.Mark("scene_cut", 3)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4:\n%s", len(lines), buf.String())
	}
	types := make([]string, len(lines))
	for i, ln := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		types[i], _ = m["type"].(string)
		if f, ok := m["frame"].(float64); !ok || int(f) != 3 {
			t.Errorf("line %d frame = %v, want 3", i, m["frame"])
		}
	}
	want := []string{"frame_start", "frame_end", "balancer_audit", "scene_cut"}
	for i := range want {
		if types[i] != want[i] {
			t.Errorf("event %d type = %q, want %q", i, types[i], want[i])
		}
	}

	// The audit line must pair prediction with measurement and carry drift.
	var audit AuditEvent
	if err := json.Unmarshal([]byte(lines[2]), &audit); err != nil {
		t.Fatal(err)
	}
	if audit.PredTot != 0.0095 || audit.Measured != 0.01 {
		t.Errorf("audit pred/measured = %v/%v", audit.PredTot, audit.Measured)
	}
	if audit.RelErr <= 0 || audit.AbsErr <= 0 {
		t.Errorf("audit errors not computed: abs=%v rel=%v", audit.AbsErr, audit.RelErr)
	}
	if len(audit.Drift) != 1 || audit.Drift[0].Module != "ME" {
		t.Errorf("audit drift = %+v", audit.Drift)
	}
	if tel.Events.Count() != 4 {
		t.Errorf("EventLog.Count = %d, want 4", tel.Events.Count())
	}
}

func TestFrameEndMetrics(t *testing.T) {
	tel := &Telemetry{Metrics: NewRegistry()}
	tel.FrameEnd(FrameRecord{Frame: 0, Intra: true}, nil, 0)
	tel.FrameEnd(FrameRecord{Frame: 1, Tot: 0.02, Tau1: 0.008, SchedOverhead: 3e-4, Bits: 1200, PSNRY: 38.5}, nil, 0.02)
	tel.Audit(AuditRecord{Frame: 1, Balancer: "lp", PredTot: 0.019, Measured: 0.02,
		Drift: []DeviceDrift{{Device: 1, Module: "SME", Before: 2e-4, After: 1.9e-4, Rel: 0.05}}})

	out := tel.Metrics.Expose()
	for _, want := range []string{
		`feves_frames_total{type="intra"} 1`,
		`feves_frames_total{type="inter"} 1`,
		"feves_tau_tot_seconds_count 1",
		"feves_sched_overhead_seconds_count 1",
		"feves_fps 50",
		"feves_coded_bits_total 1200",
		`feves_balancer_decisions_total{balancer="lp"} 1`,
		"feves_prediction_rel_error_count 1",
		`feves_model_k_seconds{device="1",module="SME"} 0.00019`,
		`feves_model_drift_rel{device="1",module="SME"} 0.05`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestTraceWriterTimeline(t *testing.T) {
	tel := &Telemetry{Metrics: NewRegistry(), Trace: NewTraceWriter()}
	spans := []Span{
		{Resource: "GPU_K#0.compute", Label: "INT@0", Start: 0, End: 0.004},
		{Resource: "host", Label: "tau1", Start: 0.004, End: 0.004},
	}
	tel.FrameEnd(FrameRecord{Frame: 0, Intra: true}, nil, 0) // runs no schedule: no bar
	tel.FrameEnd(FrameRecord{Frame: 1, Tau1: 0.004, Tau2: 0.006, Tot: 0.01}, spans, 0.01)
	tel.FrameEnd(FrameRecord{Frame: 2, Tau1: 0.003, Tau2: 0.005, Tot: 0.008}, spans, 0.008)
	if got := tel.Trace.Frames(); got != 2 {
		t.Fatalf("Frames = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := tel.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string                 `json:"name"`
			Phase string                 `json:"ph"`
			TS    float64                `json:"ts"`
			Dur   float64                `json:"dur"`
			TID   int                    `json:"tid"`
			Args  map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var threadNames []string
	var frameStarts []float64
	spanCount := 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "M" && e.Name == "thread_name":
			threadNames = append(threadNames, e.Args["name"].(string))
		case e.Phase == "X" && e.Name == "frame":
			frameStarts = append(frameStarts, e.TS)
		case e.Phase == "X":
			spanCount++
		}
	}
	if spanCount != 4 {
		t.Errorf("span events = %d, want 4", spanCount)
	}
	joined := strings.Join(threadNames, ",")
	for _, want := range []string{"frames", "GPU_K#0.compute", "host"} {
		if !strings.Contains(joined, want) {
			t.Errorf("thread names %v missing %q", threadNames, want)
		}
	}
	// Frame 2 must start where frame 1 ended: 0.01 s = 10000 µs.
	if len(frameStarts) != 2 || frameStarts[0] != 0 || frameStarts[1] != 10000 {
		t.Errorf("frame bars at %v, want [0 10000]", frameStarts)
	}
	// The span counter metric rode along.
	if !strings.Contains(tel.Metrics.Expose(), "feves_schedule_spans_total 4") {
		t.Errorf("span counter missing:\n%s", tel.Metrics.Expose())
	}
}

// TestPairedFrameRecord covers what the one frame record added to the
// sinks. A paired frame's frame_end line carries pair_seconds right after
// tau_tot; feves_fps follows core.Result.FPS (two frames per pair makespan,
// not 1/τtot, which reads about half of it); the frames of a window share a
// trace origin and the window's makespan is metered once; and the flight
// entry is the same record, deep-copied.
func TestPairedFrameRecord(t *testing.T) {
	var buf bytes.Buffer
	tel := New(NewEventLog(&buf))
	spans := []Span{{Resource: "GPU_K#0.compute", Label: "ME@0", Start: 0, End: 0.004}}
	sigma := []int{0, 5}
	lp := LPSolveStats{Solves: 2, WarmSolves: 2, Pivots: 9}
	a := FrameRecord{Frame: 4, Chain: 0, Tau1: 0.004, Tau2: 0.007, Tot: 0.018, PairMakespan: 0.02,
		M: []int{40, 28}, Sigma: sigma, LP: &lp}
	b := FrameRecord{Frame: 5, Chain: 1, Tau1: 0.006, Tau2: 0.011, Tot: 0.02, PairMakespan: 0.02}
	tel.FrameEnd(a, spans, 0)
	tel.FrameEnd(b, spans, 0.02)
	tel.FrameEnd(FrameRecord{Frame: 6, Tot: 0.01}, spans, 0.01)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"tau_tot":0.018,"pair_seconds":0.02,`) ||
		!strings.Contains(lines[0], `"sigma":[0,5]`) || !strings.Contains(lines[0], `"lp_solve":{"solves":2,"warm":2,"pivots":9}`) {
		t.Errorf("paired frame_end line: %s", lines[0])
	}
	if strings.Contains(lines[2], "pair_seconds") || strings.Contains(lines[2], "lp_solve") {
		t.Errorf("serial frame_end line carries pair fields: %s", lines[2])
	}

	// Gauge after frame 5, the last paired frame: 2/0.02, not 1/0.02.
	fps := &Telemetry{Metrics: NewRegistry()}
	fps.FrameEnd(b, nil, 0.02)
	if out := fps.Metrics.Expose(); !strings.Contains(out, "feves_fps 100\n") {
		t.Errorf("feves_fps on a paired frame, want 100:\n%s", out)
	}
	if out := tel.Metrics.Expose(); !strings.Contains(out, "feves_simulated_seconds_total 0.03\n") ||
		!strings.Contains(out, "feves_schedule_spans_total 3\n") {
		t.Errorf("window makespan not metered once:\n%s", out)
	}

	var tr bytes.Buffer
	if err := tel.Trace.Export(&tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var bars []float64
	for _, e := range doc.TraceEvents {
		if e.Name == "frame" {
			bars = append(bars, e.TS)
		}
	}
	if len(bars) != 3 || bars[0] != 0 || bars[1] != 0 || bars[2] != 20000 {
		t.Errorf("frame bars at %v µs, want [0 0 20000]", bars)
	}

	// The recorder owns a copy: scribbling on the caller's scratch after
	// FrameEnd must not reach the ring.
	sigma[1], lp.Pivots, spans[0].Label = 99, 99, "clobbered"
	got := tel.Flight.Doc().Frames
	if len(got) != 3 {
		t.Fatalf("flight ring holds %d frames, want 3", len(got))
	}
	e := got[0]
	if e.Seq != 1 || e.Frame != 4 || e.PairMakespan != 0.02 || e.Sigma[1] != 5 ||
		e.LP == nil || e.LP.Pivots != 9 || len(e.Spans) != 1 || e.Spans[0].Label != "ME@0" {
		t.Errorf("flight entry of frame 4: %+v (lp %+v)", e, e.LP)
	}
	if got[1].LP != nil || got[1].Chain != 1 {
		t.Errorf("flight entry of frame 5: %+v", got[1])
	}
}

func TestCheckViolationsCounterAndEvent(t *testing.T) {
	var buf bytes.Buffer
	tel := New(NewEventLog(&buf))
	tel.CheckViolations(3, []string{"dist.sum", "time.order", "dist.sum"})
	tel.CheckViolations(4, nil) // no rules: no event, no counters

	text := tel.Metrics.Expose()
	if !strings.Contains(text, `feves_check_violations_total{rule="dist.sum"} 2`) {
		t.Fatalf("dist.sum counted wrong:\n%s", text)
	}
	if !strings.Contains(text, `feves_check_violations_total{rule="time.order"} 1`) {
		t.Fatalf("time.order counted wrong:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d events emitted, want 1", len(lines))
	}
	var ev CheckEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "check_violation" || ev.Frame != 3 || len(ev.Rules) != 3 {
		t.Fatalf("bad event: %+v", ev)
	}

	// Nil receiver must be a no-op.
	var nilTel *Telemetry
	nilTel.CheckViolations(1, []string{"x"})
}
