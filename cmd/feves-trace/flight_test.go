package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"feves/internal/core"
	"feves/internal/device"
	"feves/internal/h264/codec"
	"feves/internal/telemetry"
	"feves/internal/trace"
	"feves/internal/vcm"
)

// flightRun simulates a checker-armed, failover-armed frame-parallel session
// on SysNFF whose first GPU stalls from frame 11 (so some frames commit at
// attempt > 0) with the flight recorder on. It returns the written
// /debug/flight document and each frame's live Gantt and CSV renderings,
// keyed by frame and attempt.
func flightRun(t testing.TB) (doc []byte, live map[[2]int][2]string) {
	t.Helper()
	pl := device.SysNFF()
	pl.Perturb = func(frame, dev int) float64 {
		if dev == 0 && frame >= 11 {
			return 1e9
		}
		return 1
	}
	tel := &telemetry.Telemetry{Flight: telemetry.NewFlightRecorder(32)}
	fw, err := core.New(core.Options{
		Platform: pl,
		Codec: codec.Config{Width: 1920, Height: 1088, SearchRange: 16, NumRF: 1,
			IQP: 27, PQP: 28, Chains: 2, IntraPeriod: 9},
		Mode: vcm.TimingOnly, Telemetry: tel,
		CheckSchedules: true, DeadlineSlack: 3, FrameParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	live = map[[2]int][2]string{}
	for fw.FramesProcessed() < 20 {
		ra, rb, paired, err := fw.EncodePair(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs := []core.Result{ra}
		if paired {
			rs = append(rs, rb)
		}
		for _, r := range rs {
			live[[2]int{r.FrameIndex, r.Attempt}] = [2]string{trace.Gantt(r.Timing, 100), trace.CSV(r.Timing)}
		}
	}
	var buf bytes.Buffer
	if err := tel.Flight.WriteDoc(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), live
}

// TestFlightReplayMatchesLiveGantt proves the one span type is lossless
// through the flight document: every entry feves-trace loads back renders
// byte-identical Gantt and CSV to the live FrameTiming of the same frame
// and attempt.
func TestFlightReplayMatchesLiveGantt(t *testing.T) {
	doc, live := flightRun(t)
	ff, err := loadFlight(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Frames) != len(live) {
		t.Fatalf("document holds %d frames, %d ran", len(ff.Frames), len(live))
	}
	retried, paired := 0, 0
	for _, e := range ff.Frames {
		want, ok := live[[2]int{e.Frame, e.Attempt}]
		if !ok {
			t.Fatalf("document frame %d attempt %d never ran live", e.Frame, e.Attempt)
		}
		timing := entryTiming(e)
		if got := trace.Gantt(timing, 100); got != want[0] {
			t.Errorf("frame %d attempt %d: replayed Gantt differs from live:\n%s\nlive:\n%s", e.Frame, e.Attempt, got, want[0])
		}
		if got := trace.CSV(timing); got != want[1] {
			t.Errorf("frame %d attempt %d: replayed CSV differs from live", e.Frame, e.Attempt)
		}
		if e.Attempt > 0 {
			retried++
		}
		if e.PairMakespan > 0 {
			paired++
		}
	}
	if retried == 0 || paired == 0 {
		t.Fatalf("run exercised %d retried and %d paired frames, want both", retried, paired)
	}

	// The CLI path shows the same chart for the frame it is asked for; by
	// default it opens the newest bundle, the exclusion's post-mortem.
	var out bytes.Buffer
	if err := renderFlight(&out, doc, flightOpts{bundle: -1, frame: 6, frameSet: true, width: 100}); err != nil {
		t.Fatal(err)
	}
	if want := live[[2]int{6, 0}][0]; !strings.Contains(out.String(), "device_excluded") || !strings.Contains(out.String(), want) {
		t.Errorf("feves-trace -flight -frame 6 does not show the bundle's live Gantt:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestHostileFlightDocument feeds -flight documents whose times no schedule
// could have produced. Each must come back as an error naming the frame (and
// span) — trace.Gantt used to index its chart line with them and panic.
func TestHostileFlightDocument(t *testing.T) {
	span := func(start, end string) string {
		return `{"frames":[{"seq":1,"frame":3,"tau1":0.01,"tau2":0.02,"tau_tot":0.03,` +
			`"spans":[{"resource":"GPU#0.compute","label":"ME@0","start":` + start + `,"end":` + end + `}]}]}`
	}
	for _, tc := range []struct{ name, doc, want string }{
		{"negative start", span("-2.5", "0.01"), `frame 3: span 0 ("ME@0" on "GPU#0.compute")`},
		{"end before start", span("0.02", "0.01"), "frame 3: span 0"},
		{"NaN start", span("NaN", "0.01"), "invalid character"},
		{"overflowing end", span("0", "1e999"), "1e999"},
		{"negative tau1", `{"frames":[{"frame":5,"tau1":-1,"tau_tot":0.03}]}`, "frame 5: tau1 = -1"},
		{"negative tau_tot", `{"frames":[{"frame":5,"tau_tot":-0.03}]}`, "frame 5: tau_tot"},
		{"hostile frame inside a bundle", `{"bundles":[{"id":2,"reason":"x","frames":[{"frame":7,"tau2":-4}]}]}`, "bundle 2: frame 7: tau2"},
		{"no frames", `{"frames":[]}`, "no recorded frames"},
		{"not a document", `[1,2]`, "cannot unmarshal"},
	} {
		var out bytes.Buffer
		err := renderFlight(&out, []byte(tc.doc), flightOpts{bundle: -1, width: 100})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// What JSON cannot spell, a decoded entry still can.
	for _, e := range []telemetry.FlightEntry{
		{FrameRecord: telemetry.FrameRecord{Tau1: math.NaN()}},
		{FrameRecord: telemetry.FrameRecord{Tot: math.Inf(1)}},
		{Spans: []telemetry.Span{{Start: math.NaN(), End: 1}}},
		{Spans: []telemetry.Span{{Start: 0, End: math.Inf(1)}}},
	} {
		if checkEntry(&e) == nil {
			t.Errorf("checkEntry accepted %+v", e)
		}
	}

	// Huge but finite times are valid input: they render, clamped into the
	// chart, instead of overflowing an index.
	huge := `{"frames":[{"frame":1,"tau1":1e300,"tau2":1e300,"tau_tot":1e-300,` +
		`"spans":[{"resource":"r","label":"ME@0","start":1e300,"end":1e300}]}]}`
	var out bytes.Buffer
	if err := renderFlight(&out, []byte(huge), flightOpts{bundle: -1, width: 100}); err != nil {
		t.Fatalf("1e300 document: %v", err)
	}
	if !strings.Contains(out.String(), "r |") {
		t.Errorf("1e300 document rendered no chart:\n%s", out.String())
	}
}

// renderAll drives every view feves-trace has over a flight document.
func renderAll(doc []byte) error {
	ff, err := loadFlight(doc)
	if err != nil {
		return err
	}
	windows := [][]telemetry.FlightEntry{ff.Frames}
	for _, b := range ff.Bundles {
		windows = append(windows, b.Frames)
	}
	for _, frames := range windows {
		for _, e := range frames {
			timing := entryTiming(e)
			_ = trace.Gantt(timing, 100)
			_ = trace.CSV(timing)
			_ = trace.SVG(timing, 1200)
			_ = trace.Busy(timing)
		}
		if err := exportWindow(io.Discard, 0, frames); err != nil {
			return err
		}
	}
	for _, o := range []flightOpts{{bundle: -1, width: 100}, {bundle: 1, csv: true}, {bundle: -1, jsonOut: true, frame: 3, frameSet: true}} {
		if err := renderFlight(io.Discard, doc, o); err != nil {
			return err
		}
	}
	return nil
}

// FuzzFlightDoc: whatever bytes -flight is pointed at, feves-trace answers
// with an error or rendered output, never a panic.
func FuzzFlightDoc(f *testing.F) {
	// A real document cut down to one retried frame of eight spans, two
	// incidents and a one-frame bundle: on the whole 150 kB one the engine
	// spends its budget minimizing.
	doc, _ := flightRun(f)
	var full telemetry.FlightDoc
	if err := json.Unmarshal(doc, &full); err != nil {
		f.Fatal(err)
	}
	last, early := full.Frames[len(full.Frames)-1], full.Frames[2]
	last.Spans, early.Spans = last.Spans[:8], early.Spans[:4]
	small, err := json.Marshal(telemetry.FlightDoc{
		Frames: []telemetry.FlightEntry{last}, Incidents: full.Incidents[:2],
		Bundles: []telemetry.Bundle{{ID: 1, Reason: "device_excluded", Frame: 2, Frames: []telemetry.FlightEntry{early}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add([]byte(`{"frames":[{"frame":3,"tau1":0.01,"tau2":0.02,"tau_tot":0.03,"spans":[{"resource":"r","label":"ME@0","start":-2.5,"end":0.01}]}]}`))
	f.Add([]byte(`{"frames":[{"frame":1,"tau1":1e300,"tau_tot":1e-300,"spans":[{"resource":"r","label":"R*@0","start":1e300,"end":1e300}]}]}`))
	f.Add([]byte(`{"reason":"deadline_error","frame":2,"frames":[{"frame":2,"tau_tot":0.5,"lp_solve":{"solves":1}}],"bundles":[{"id":1,"frames":[{"frame":9}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = renderAll(data)
	})
}

// FuzzMergeEvents: the same contract for the -events loader.
func FuzzMergeEvents(f *testing.F) {
	golden, err := os.ReadFile("../../internal/telemetry/testdata/events.golden.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"type":"frame_end","node":"n","session":"s","frame":1,"attempt":2,"tau1":-1,"tau2":1e308,"tau_tot":1e308}` + "\n"))
	f.Add([]byte(`{"type":"frame_end","tau_tot":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := telemetry.NewTraceWriterCap(64)
		if err := mergeEventStream(w, bytes.NewReader(data), "node", map[string]*laneStats{}); err != nil {
			return
		}
		_ = w.Export(io.Discard)
		_ = fmt.Sprint(w.Frames(), w.Sessions())
	})
}
