package bench

import (
	"strings"
	"testing"
)

func report(metrics ...PerfMetric) PerfReport { return PerfReport{Metrics: metrics} }

func TestComparePerfGates(t *testing.T) {
	base := report(
		PerfMetric{Name: "fps", Value: 50, Unit: "fps", Direction: "higher"},
		PerfMetric{Name: "allocs", Value: 0, Unit: "allocs/frame", Direction: "lower", Slop: 0.5},
		PerfMetric{Name: "wall", Value: 80, Unit: "us", Direction: "info"},
	)
	cases := []struct {
		name  string
		cur   PerfReport
		fails int
		want  string
	}{
		{"identical passes", base, 0, ""},
		{"within tolerance passes", report(
			PerfMetric{Name: "fps", Value: 44, Direction: "higher"},
			PerfMetric{Name: "allocs", Value: 0.4, Direction: "lower"},
			PerfMetric{Name: "wall", Value: 80, Direction: "info"},
		), 0, ""},
		{"fps regression fails", report(
			PerfMetric{Name: "fps", Value: 40, Direction: "higher"},
			PerfMetric{Name: "allocs", Value: 0, Direction: "lower"},
			PerfMetric{Name: "wall", Value: 80, Direction: "info"},
		), 1, "fps"},
		{"alloc regression beyond slop fails", report(
			PerfMetric{Name: "fps", Value: 50, Direction: "higher"},
			PerfMetric{Name: "allocs", Value: 2, Direction: "lower"},
			PerfMetric{Name: "wall", Value: 80, Direction: "info"},
		), 1, "allocs"},
		{"wall-clock blowup is informational only", report(
			PerfMetric{Name: "fps", Value: 50, Direction: "higher"},
			PerfMetric{Name: "allocs", Value: 0, Direction: "lower"},
			PerfMetric{Name: "wall", Value: 8000, Direction: "info"},
		), 0, ""},
		{"dropping a gated metric fails", report(
			PerfMetric{Name: "fps", Value: 50, Direction: "higher"},
			PerfMetric{Name: "wall", Value: 80, Direction: "info"},
		), 1, "allocs"},
		{"dropping an info metric passes", report(
			PerfMetric{Name: "fps", Value: 50, Direction: "higher"},
			PerfMetric{Name: "allocs", Value: 0, Direction: "lower"},
		), 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := ComparePerf(base, tc.cur, 0.15)
			if len(fails) != tc.fails {
				t.Fatalf("got %d failures %v, want %d", len(fails), fails, tc.fails)
			}
			if tc.want != "" && !strings.Contains(fails[0], tc.want) {
				t.Fatalf("failure %q does not mention %q", fails[0], tc.want)
			}
		})
	}
}

// TestPerfReportMetrics pins the gated metric set: CI compares by name,
// so renaming or dropping one silently weakens the regression gate —
// this test makes that a deliberate, reviewed change (with a matching
// BENCH_10.json refresh).
func TestPerfReportMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full perf measurement loop")
	}
	r := Perf()
	got := map[string]string{}
	for _, m := range r.Metrics {
		got[m.Name] = m.Direction
	}
	want := map[string]string{
		"steady_fps_syshk":           "higher",
		"steady_fps_sysnff":          "higher",
		"steady_fps_syshk_fp":        "higher",
		"fp_speedup":                 "higher",
		"frame_allocs":               "lower",
		"frame_bytes":                "lower",
		"pair_frame_allocs":          "lower",
		"pair_frame_bytes":           "lower",
		"lp_warm_rate":               "higher",
		"lp_pivots_per_solve":        "lower",
		"sched_overhead_us":          "info",
		"sched_overhead_worst_us":    "info",
		"fleet_lp_route_rate":        "higher",
		"fleet_lp_warm_rate":         "higher",
		"fleet_submit_us":            "info",
		"fleet_shed_rate":            "higher",
		"fleet_speculative_releases": "higher",
		"kernel_me_ns_mb":            "info",
		"kernel_me_speedup":          "higher",
		"kernel_int_ns_mb":           "info",
		"kernel_int_speedup":         "info",
		"kernel_sme_ns_mb":           "info",
		"kernel_sme_speedup":         "higher",
		"kernel_dbl_ns_mb":           "info",
		"kernel_dbl_speedup":         "higher",
	}
	for name, dir := range want {
		if got[name] != dir {
			t.Errorf("metric %s: direction %q, want %q", name, got[name], dir)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics %v, want %d", len(got), got, len(want))
	}
	table := PerfTable(r)
	if len(table.Rows) != len(r.Metrics) {
		t.Errorf("PerfTable has %d rows for %d metrics", len(table.Rows), len(r.Metrics))
	}
}
