package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"feves"
)

// Toy sizes: the five workloads with a few frames and ops each, so the
// suite exercises every code path of the benchmark in seconds. Nothing
// here asserts a wall-clock value.
var (
	toyCIF = encodeSize{platform: "syshk",
		cfg:        feves.Config{Width: 64, Height: 64, SearchArea: 16, RefFrames: 1, IntraPeriod: 3, Checksum: true},
		clipFrames: 3, replayFrames: 4, simSteps: 100}
	toy720p = encodeSize{platform: "syshk",
		cfg: feves.Config{Width: 64, Height: 64, SearchArea: 16, RefFrames: 1, FastME: "diamond",
			ArithmeticCoding: true, Slices: 2, IntraPeriod: 3, Checksum: true},
		clipFrames: 3, replayFrames: 4, simSteps: 100}
	toySimulate = simulateSize{sessions: simulate1080p.sessions, block: 10, exactRounds: 2, traceSteps: 100}
	toyServe    = serveSize{platform: "sysnfk", clients: 2, deck: 10, simPerTen: 7,
		sim: feves.Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}, simFrames: 5,
		enc: feves.Config{Width: 64, Height: 64, SearchArea: 16, RefFrames: 1, IntraPeriod: 2}, encFrames: 3,
		clips: 2, traceOps: 10, directOps: 10, simSteps: 100}
	toyFleet = fleetSize{nodes: []string{"syshk", "sysnff", "sysnf"}, affinity: 0.25, clients: 2, deck: 4,
		enc:    feves.Config{Width: 64, Height: 64, SearchArea: 16, RefFrames: 1, IntraPeriod: 2},
		frames: 4, clips: 2, poll: time.Millisecond, traceOps: 10, directOps: 10, simSteps: 100}
)

// toyWorkloads pairs each workload name with its toy set-up and the exact
// op and frame counts a zero-length window must produce.
func toyWorkloads() []struct {
	workload
	ops, frames int
} {
	return []struct {
		workload
		ops, frames int
	}{
		{workload{"encode_cif_fs", func(s uint64) (instance, error) { return setupEncode(toyCIF, s) }}, 3, 3},
		{workload{"encode_720p_lowme", func(s uint64) (instance, error) { return setupEncode(toy720p, s) }}, 3, 3},
		{workload{"simulate_1080p", func(s uint64) (instance, error) { return setupSimulate(toySimulate, s) }}, 60, 60},
		{workload{"serve_jobs", func(s uint64) (instance, error) { return setupServe(toyServe, s) }}, 10, 7*5 + 3*3},
		{workload{"fleet_streams", func(s uint64) (instance, error) { return setupFleet(toyFleet, s) }}, 4, 16},
	}
}

func checkMetrics(t *testing.T, got metricSet, defs []metricDef) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics reported, table has %d", len(got), len(defs))
	}
	for _, d := range defs {
		mt, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if mt.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, mt.Unit, d.Unit)
		}
	}
}

func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]runResult
			for i := range runs {
				res, _, err := runWorkload(w.workload, 7, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
				if !res.Correct || res.Failed != 0 || res.Wrong != 0 {
					t.Errorf("run %d: correct=%v failed=%d wrong=%d", i, res.Correct, res.Failed, res.Wrong)
				}
				if res.Attempted != w.ops || res.Frames != w.frames {
					t.Errorf("run %d: %d ops, %d frames; want %d, %d", i, res.Attempted, res.Frames, w.ops, w.frames)
				}
				checkMetrics(t, res.Metrics, endToEnd)
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("run %d: %s = %v, want > 0", i, d.Name, res.Metrics[d.Name].Value)
					}
				}
				var buf bytes.Buffer
				printRun(&buf, res)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := last[k]; !ok || len(last) != 4 {
						t.Errorf("last line keys %v, want exactly correct, attempted, failed, metrics", last)
					}
				}
			}
			if runs[0].Digest == "" || runs[0].Digest != runs[1].Digest {
				t.Errorf("output digests differ between two runs of one seed: %q, %q", runs[0].Digest, runs[1].Digest)
			}
		})
	}
}

func TestTracedPassAtToySize(t *testing.T) {
	// Model and coding outputs that must repeat exactly for one seed. The
	// service workloads' model time depends on which lease or node a job
	// lands on, so only their coding outputs are pinned.
	exactEverywhere := []string{"codec.bits_per_frame", "codec.psnr_y_db"}
	for _, w := range toyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]runResult
			for i := range runs {
				res, spans, err := runWorkload(w.workload, 7, 10*time.Second, 1, 0)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
				checkMetrics(t, res.Metrics, perLayer)
				if got := int(res.Metrics["trace.spans"].Value); got != len(spans) || got == 0 {
					t.Errorf("trace.spans = %d, pass returned %d spans", got, len(spans))
				}
				for _, s := range spans {
					if s.Parent >= 0 && s.ID != spans[s.Parent].ID {
						t.Errorf("span %s has trace id %q, its parent %s has %q", s.Name, s.ID, spans[s.Parent].Name, spans[s.Parent].ID)
						break
					}
				}
				var buf bytes.Buffer
				if err := writeChrome(&buf, spans); err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(spans) {
					t.Errorf("trace file: %d events for %d spans (err %v)", len(doc.TraceEvents), len(spans), err)
				}
			}
			names := exactEverywhere
			if w.name != "serve_jobs" && w.name != "fleet_streams" {
				names = append(names, "model.virtual_fps", "model.pred_error", "lp.solves_per_frame")
			}
			for _, name := range names {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, a, b)
				}
			}
			if w.name == "simulate_1080p" {
				return // no kernel runs
			}
			if c := runs[0].Metrics["stage.cover_share"].Value; c < 0.95 {
				t.Errorf("staged children cover %.3f of the frame spans, want >= 0.95", c)
			}
			if runs[0].Metrics["codec.bits_per_frame"].Value <= 0 {
				t.Error("codec.bits_per_frame is 0 on a workload that encodes")
			}
		})
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, // ten samples above the 90th
		{99, 0.9, false}, // nine
		{20, 0.5, true},
		{19, 0.5, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{0, 0.5, false},
	} {
		if got := enoughBeyond(c.n, c.p); got != c.want {
			t.Errorf("enoughBeyond(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	m := metricSet{}
	m.setPercentile("op_ms_p90", xs[:50], 0.9)
	if !m["op_ms_p90"].Short || m["op_ms_p90"].N != 50 {
		t.Errorf("p90 of 50 samples not flagged short: %+v", m["op_ms_p90"])
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "frame", Parent: -1, Start: 0, End: 100},
		{Name: "me", Parent: 0, Start: 10, End: 30},
		{Name: "sme", Parent: 0, Start: 20, End: 50},   // overlaps me: counted once
		{Name: "late", Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{Name: "inner", Parent: 1, Start: 12, End: 17},
	}
	self := selfTimes(spans)
	// frame: 100 − (union [10,50] = 40) − ([90,100] = 10) = 50.
	for name, want := range map[string]time.Duration{"frame": 50, "me": 15, "sme": 30, "late": 30, "inner": 5} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if tot := totalTimes(spans)["me"]; tot != 20 {
		t.Errorf("total time of me = %d, want 20", tot)
	}
	var tr *tracer // a nil tracer records nothing and never panics
	tr.end(tr.begin("x", "", 0, -1))
	tr.add("y", "", 0, -1, time.Now(), time.Now())
	tr.setID("z", 0)
	if tr.count() != 0 {
		t.Error("nil tracer counted spans")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"flat", []float64{100, 101, 99}, []float64{100, 102, 98}, "lower", 0.10, "ok"},
		{"slower", []float64{100, 101, 99}, []float64{120, 121, 119}, "lower", 0.10, "REGRESSION"},
		{"fewer fps", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.10, "REGRESSION"},
		{"faster", []float64{100, 101, 99}, []float64{80, 81, 79}, "lower", 0.10, "improved"},
		{"noisy", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "lower", 0.10, "unresolved"},
		{"noisy but disjoint", []float64{80, 100, 120}, []float64{200, 230, 260}, "lower", 0.10, "REGRESSION"},
	} {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
