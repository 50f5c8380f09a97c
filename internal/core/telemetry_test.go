package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"feves/internal/device"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/telemetry"
	"feves/internal/vcm"
	"feves/internal/video"
)

// runFrames simulates n frames on SysHK with the given sink attached.
func runFrames(t *testing.T, tel *telemetry.Telemetry, n, intraPeriod int) {
	t.Helper()
	fw, err := New(Options{
		Platform: device.SysHK(),
		Codec: codec.Config{Width: 640, Height: 352, SearchRange: 16,
			NumRF: 1, IQP: 27, PQP: 28, IntraPeriod: intraPeriod},
		Mode:      vcm.TimingOnly,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := fw.EncodeNext(nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrameLoopEmitsEventsAndMetrics(t *testing.T) {
	var events bytes.Buffer
	tel := &telemetry.Telemetry{
		Metrics: telemetry.NewRegistry(),
		Events:  telemetry.NewEventLog(&events),
		Trace:   telemetry.NewTraceWriter(),
	}
	const frames = 8
	runFrames(t, tel, frames, 0)

	var starts, ends, audits int
	var sawPredVsMeasured bool
	for _, ln := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		switch m["type"] {
		case "frame_start":
			starts++
		case "frame_end":
			ends++
		case "balancer_audit":
			audits++
			pred, _ := m["pred_tau_tot"].(float64)
			meas, _ := m["measured_tau_tot"].(float64)
			if pred > 0 && meas > 0 {
				sawPredVsMeasured = true
			}
			if _, ok := m["drift"]; !ok {
				t.Errorf("audit record without drift: %v", m)
			}
		}
	}
	if starts != frames || ends != frames {
		t.Errorf("frame_start/frame_end = %d/%d, want %d each", starts, ends, frames)
	}
	// Frame 0 is intra and frame 1 is the equidistant initialization, so
	// audits start once the LP predicts: frames 2..7.
	if audits != frames-2 {
		t.Errorf("balancer_audit records = %d, want %d", audits, frames-2)
	}
	if !sawPredVsMeasured {
		t.Error("no audit paired a positive prediction with a positive measurement")
	}

	metrics := tel.Metrics.Expose()
	for _, want := range []string{
		`feves_frames_total{type="intra"} 1`,
		`feves_frames_total{type="inter"} 7`,
		"feves_tau_tot_seconds_count 7",
		"feves_sched_overhead_seconds_count 7",
		`feves_balancer_decisions_total{balancer="lp"} 6`,
		"feves_prediction_rel_error_count 6",
		"feves_model_k_seconds{",
		"feves_schedule_spans_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The Perfetto timeline accumulated one entry per inter frame.
	if got := tel.Trace.Frames(); got != 7 {
		t.Errorf("trace frames = %d, want 7", got)
	}
}

func TestIDRMarkEvents(t *testing.T) {
	var events bytes.Buffer
	tel := &telemetry.Telemetry{Events: telemetry.NewEventLog(&events)}
	runFrames(t, tel, 9, 4) // intra at 0, 4, 8 → idr marks at 4 and 8
	idr := 0
	for _, ln := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatal(err)
		}
		if m["type"] == "idr" {
			idr++
		}
	}
	if idr != 2 {
		t.Errorf("idr marks = %d, want 2", idr)
	}
}

// TestNilTelemetryUnchangedResults is the zero-cost contract at the
// framework level: enabling telemetry must not alter the simulated timing.
func TestNilTelemetryUnchangedResults(t *testing.T) {
	run := func(tel *telemetry.Telemetry) []float64 {
		fw, err := New(Options{
			Platform: device.SysHK(),
			Codec: codec.Config{Width: 640, Height: 352, SearchRange: 16,
				NumRF: 1, IQP: 27, PQP: 28},
			Mode:      vcm.TimingOnly,
			Telemetry: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tots []float64
		for i := 0; i < 10; i++ {
			r, err := fw.EncodeNext(nil)
			if err != nil {
				t.Fatal(err)
			}
			tots = append(tots, r.Timing.Tot)
		}
		return tots
	}
	plain := run(nil)
	observed := run(&telemetry.Telemetry{Metrics: telemetry.NewRegistry(),
		Events: telemetry.NewEventLog(&bytes.Buffer{}), Trace: telemetry.NewTraceWriter()})
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("frame %d τtot changed with telemetry on: %v vs %v", i, plain[i], observed[i])
		}
	}
}

// TestSceneCutInPairAdvancesTraceClock splices a hard scene change onto
// frame A of a frame-parallel pair: A completes as an IDR, B is aborted and
// re-offered. The window still ran on the devices, so the sink's run clock
// must move on by its makespan — the re-offered frame's slices start at or
// after the cut frame's last end, and feves_simulated_seconds_total accrues
// the window. The clock used to advance only on the last *offered* frame,
// which a cut window never reports, so the next frame was drawn on top of it.
func TestSceneCutInPairAdvancesTraceClock(t *testing.T) {
	const wpx, hpx, cutAt = 320, 176, 8
	tel := &telemetry.Telemetry{Metrics: telemetry.NewRegistry(), Trace: telemetry.NewTraceWriter()}
	fw, err := New(Options{
		Platform: device.SysNF(),
		Codec: codec.Config{Width: wpx, Height: hpx, SearchRange: 16, NumRF: 1,
			IQP: 27, PQP: 28, Chains: 2, SceneCutThreshold: 8},
		Mode: vcm.Functional, FrameParallel: true, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	calm, burst := video.NewSynthetic(wpx, hpx, 12, 1), video.NewSynthetic(wpx, hpx, 12, 977)
	frameAt := func(i int) *h264.Frame {
		if i >= cutAt {
			return burst.FrameAt(i)
		}
		return calm.FrameAt(i)
	}
	simulated, cutInPair := 0.0, false
	for fw.FramesProcessed() < cutAt+3 {
		i := fw.FramesProcessed()
		ra, rb, paired, err := fw.EncodePair(frameAt(i), frameAt(i+1))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case paired:
			simulated += rb.Timing.PairMakespan
		case ra.Timing.PairMakespan > 0:
			if i != cutAt || !ra.Stats.Intra {
				t.Fatalf("frame %d lost its partner without a scene cut: %+v", i, ra)
			}
			cutInPair = true
			simulated += ra.Timing.PairMakespan
		default:
			simulated += ra.Timing.Tot
		}
	}
	if !cutInPair {
		t.Fatalf("the cut at frame %d did not land on frame A of a pair", cutAt)
	}
	if got := tel.Metrics.Counter("feves_simulated_seconds_total", "").Value(); math.Abs(got-simulated) > 1e-12 {
		t.Errorf("feves_simulated_seconds_total = %v, the windows ran %v", got, simulated)
	}

	var buf bytes.Buffer
	if err := tel.Trace.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			TID   int     `json:"tid"`
			Args  struct {
				Frame int `json:"frame"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	cutEnd, nextStart := 0.0, math.Inf(1)
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" || e.TID == 0 { // device-lane slices only
			continue
		}
		switch e.Args.Frame {
		case cutAt:
			cutEnd = math.Max(cutEnd, e.TS+e.Dur)
		case cutAt + 1:
			nextStart = math.Min(nextStart, e.TS)
		}
	}
	if cutEnd == 0 || math.IsInf(nextStart, 1) {
		t.Fatalf("trace holds no slices for frames %d/%d", cutAt, cutAt+1)
	}
	if nextStart < cutEnd-1e-6 {
		t.Errorf("frame %d's first slice starts at %.3f µs, on top of the cut frame %d, whose last slice ends at %.3f µs",
			cutAt+1, nextStart, cutAt, cutEnd)
	}
}
