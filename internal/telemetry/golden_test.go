package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The JSONL event stream and the Perfetto export are consumed by external
// tools (jq pipelines, chrome://tracing, Perfetto), so their wire format is
// a compatibility surface: these golden tests pin the exact bytes —
// field names, field order, number formatting. Regenerate deliberately
// with  go test ./internal/telemetry -run Golden -update  after a schema
// change.
var update = flag.Bool("update", false, "rewrite the golden files")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden file.\ngot:\n%s\nwant:\n%s\n(if the change is intentional, regenerate with -update)",
			name, got, want)
	}
}

// fixedEvents is a deterministic event sequence covering every record type
// and the omitempty edges (intra frame without distributions, audit with
// and without drift).
func fixedEvents() []interface{} {
	return []interface{}{
		FrameStartEvent{Type: "frame_start", Frame: 0, Intra: true},
		FrameEndEvent{Type: "frame_end", FrameRecord: FrameRecord{Frame: 0, Intra: true, Bits: 91234, PSNRY: 39.25}},
		FrameStartEvent{Type: "frame_start", Frame: 1},
		FrameEndEvent{Type: "frame_end", FrameRecord: FrameRecord{
			Frame: 1,
			Tau1:  0.0125, Tau2: 0.0175, Tot: 0.021,
			PredTau1: 0.012, PredTau2: 0.017, PredTot: 0.0205,
			SchedOverhead: 0.0004, RStarDev: 0,
			M: []int{40, 28}, L: []int{40, 28}, S: []int{34, 34},
			ModME: 0.009, ModINT: 0.003, ModSME: 0.006, ModRStar: 0.0035,
			Bits: 45678, PSNRY: 38.5,
		}},
		AuditEvent{
			Type: "balancer_audit", Frame: 1, Balancer: "lp",
			PredTot: 0.0205, Measured: 0.021, AbsErr: 0.0005, RelErr: 0.0238,
			Drift: []DeviceDrift{
				{Device: 0, Module: "ME", Before: 0.00013, After: 0.00012, Rel: 0.0769},
				{Device: 1, Module: "SME", After: 0.0002},
			},
		},
		MarkEvent{Type: "scene_cut", Frame: 2},
		AuditEvent{Type: "balancer_audit", Frame: 2, Balancer: "equidistant",
			PredTot: 0.02, Measured: 0.019, AbsErr: 0.001, RelErr: 0.0526},
		MarkEvent{Type: "idr", Frame: 3},
	}
}

func TestEventLogGolden(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	events := fixedEvents()
	for _, e := range events {
		log.Emit(e)
	}
	if log.Count() != len(events) {
		t.Fatalf("emitted %d events, logged %d", len(events), log.Count())
	}
	// Every line must be independently parseable JSON — the property jq/
	// line-oriented consumers rely on.
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("%d JSONL lines for %d events", len(lines), len(events))
	}
	for i, line := range lines {
		var m map[string]interface{}
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if _, ok := m["type"]; !ok {
			t.Fatalf("line %d has no type tag: %s", i, line)
		}
	}
	goldenCompare(t, "events.golden.jsonl", buf.Bytes())
}

func TestPerfettoGolden(t *testing.T) {
	w := NewTraceWriter()
	w.AddFrame(0, 0, 0, 0, 0.010, 0.015, 0.020, []Span{
		{Resource: "GPU_K", Label: "ME@0", Start: 0.001, End: 0.008},
		{Resource: "GPU_K", Label: "INT@0", Start: 0.008, End: 0.0095},
		{Resource: "GPU_K.h2d", Label: "CF.h2d@0", Start: 0, End: 0.001},
		{Resource: "CPU_H#0", Label: "ME@1", Start: 0, End: 0.009},
	})
	w.AddFrame(0, 1, 0, 0.020, 0.009, 0.014, 0.019, []Span{
		{Resource: "GPU_K", Label: "SME@0", Start: 0.010, End: 0.0135},
		{Resource: "GPU_K", Label: "R*@0", Start: 0.014, End: 0.019},
	})
	if w.Frames() != 2 {
		t.Fatalf("Frames() = %d, want 2", w.Frames())
	}
	var buf bytes.Buffer
	if err := w.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// The export must stay loadable: valid JSON with the two top-level keys
	// the trace-event format requires.
	var doc struct {
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("export missing trace-event structure: unit %q, %d events",
			doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	goldenCompare(t, "perfetto.golden.json", buf.Bytes())
}
