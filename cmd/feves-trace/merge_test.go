package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"feves/internal/telemetry"
)

func jsonl(t *testing.T, events ...interface{}) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestMergeEventStreamsKeyedByNode merges two per-node event files and
// checks the shared timeline: lanes keyed by node/session, frames abutting
// per lane, non-frame records skipped, and attempt tags surviving.
func TestMergeEventStreamsKeyedByNode(t *testing.T) {
	node0 := jsonl(t,
		telemetry.FrameStartEvent{Type: "frame_start", Node: "node0", Session: "job-1", Frame: 0},
		telemetry.FrameEndEvent{Type: "frame_end", Node: "node0", Session: "job-1",
			FrameRecord: telemetry.FrameRecord{Frame: 0, Tau1: 0.01, Tau2: 0.02, Tot: 0.05}},
		telemetry.FrameEndEvent{Type: "frame_end", Node: "node0", Session: "job-1",
			FrameRecord: telemetry.FrameRecord{Frame: 1, Tau1: 0.01, Tau2: 0.02, Tot: 0.04}},
	)
	node1 := jsonl(t,
		telemetry.FrameEndEvent{Type: "frame_end", Node: "node1", Session: "clip/shard1",
			FrameRecord: telemetry.FrameRecord{Frame: 4, Attempt: 2, Tau1: 0.02, Tau2: 0.03, Tot: 0.06}},
	)

	w := telemetry.NewTraceWriterCap(0)
	stats := map[string]*laneStats{}
	for name, stream := range map[string]string{"node0": node0, "node1": node1} {
		if err := mergeEventStream(w, strings.NewReader(stream), name, stats); err != nil {
			t.Fatal(err)
		}
	}

	if len(stats) != 2 || stats["node0"].Frames != 2 || stats["node1"].Frames != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if stats["node0"].Skipped != 1 {
		t.Fatalf("node0 skipped %d non-frame records, want 1", stats["node0"].Skipped)
	}
	if w.Frames() != 3 {
		t.Fatalf("merged timeline holds %d frames, want 3", w.Frames())
	}
	lanes := w.Sessions()
	want := []string{"node0/job-1", "node1/clip/shard1"}
	if len(lanes) != len(want) || lanes[0] != want[0] || lanes[1] != want[1] {
		t.Fatalf("lanes %v, want %v", lanes, want)
	}

	var buf bytes.Buffer
	if err := w.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string                 `json:"name"`
			Phase string                 `json:"ph"`
			TS    float64                `json:"ts"`
			PID   int                    `json:"pid"`
			Args  map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// node0's second frame starts where the first ended: 0.05 s = 50000 µs.
	var starts []float64
	attemptTagged := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "frame" && ev.Phase == "X" {
			starts = append(starts, ev.TS)
			if a, ok := ev.Args["attempt"]; ok && a == 2.0 {
				attemptTagged = true
			}
		}
	}
	if len(starts) != 3 {
		t.Fatalf("exported %d frame bars, want 3", len(starts))
	}
	found := false
	for _, ts := range starts {
		if ts == 50000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no frame bar at the 50000 µs back-to-back offset: %v", starts)
	}
	if !attemptTagged {
		t.Fatal("re-leased shard's attempt tag lost in the merge")
	}
}

// TestMergeEventStreamFallsBackToFileLabel covers pre-fleet streams whose
// records carry no node field: the lane key comes from the file name.
func TestMergeEventStreamFallsBackToFileLabel(t *testing.T) {
	stream := jsonl(t,
		telemetry.FrameEndEvent{Type: "frame_end", Session: "s", FrameRecord: telemetry.FrameRecord{Tot: 0.01}},
	)
	w := telemetry.NewTraceWriterCap(0)
	stats := map[string]*laneStats{}
	if err := mergeEventStream(w, strings.NewReader(stream), nodeLabelFor("/tmp/node7.events.jsonl"), stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["node7"]; !ok {
		t.Fatalf("stats keyed %v, want file-derived label node7", stats)
	}
	lanes := w.Sessions()
	if len(lanes) != 1 || lanes[0] != "node7/s" {
		t.Fatalf("lanes %v, want [node7/s]", lanes)
	}
}

// TestMergeEventStreamRejectsMalformedJSON pins the error path: a corrupt
// record fails with its position instead of silently truncating the trace.
func TestMergeEventStreamRejectsMalformedJSON(t *testing.T) {
	good := jsonl(t, telemetry.FrameEndEvent{Type: "frame_end", Node: "n", FrameRecord: telemetry.FrameRecord{Tot: 0.01}})
	err := mergeEventStream(telemetry.NewTraceWriterCap(0), strings.NewReader(good+"{broken\n"), "n", map[string]*laneStats{})
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("malformed record error %v, want position-tagged failure", err)
	}
}
