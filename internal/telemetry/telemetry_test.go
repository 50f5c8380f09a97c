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
	tel.FrameEnd(FrameRecord{Frame: 1, Tot: 0.01})
	tel.Audit(AuditRecord{Frame: 1, PredTot: 0.01, Measured: 0.011})
	tel.Mark("idr", 8)
	tel.FrameSpans(1, 0, 0.001, 0.002, 0.003, 0.003, []Span{{Resource: "r", Label: "ME@0", End: 0.003}})
	tel.Incident("device_down", 1, 0, "test")
	_ = tel.CaptureBundle("test", 1, "")
	_ = tel.ForSession("s")
}

func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	tel := &Telemetry{Events: NewEventLog(&buf)}
	tel.FrameStart(3, false)
	tel.FrameEnd(FrameRecord{Frame: 3, Tau1: 0.004, Tau2: 0.007, Tot: 0.01,
		PredTot: 0.0095, RStarDev: 1, M: []int{30, 38}, SchedOverhead: 0.0002})
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
	tel.FrameEnd(FrameRecord{Frame: 0, Intra: true})
	tel.FrameEnd(FrameRecord{Frame: 1, Tot: 0.02, Tau1: 0.008, SchedOverhead: 3e-4, Bits: 1200, PSNRY: 38.5})
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
	tel.FrameSpans(1, 0, 0.004, 0.006, 0.01, 0.01, spans)
	tel.FrameSpans(2, 0, 0.003, 0.005, 0.008, 0.008, spans)
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
