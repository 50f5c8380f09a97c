package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The tables below are the
// single source of the names and units the program prints; a test checks
// that BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is measured with tracing off, on every workload. An "op" is the
// unit a caller of that workload waits for: one EncodeYUV on encode_*, one
// Step (a 100-Step block ÷ 100) on simulate_1080p, one job on serve_jobs,
// one stream on fleet_streams.
//
// The time bounds are as wide as they are because of the host, not the
// program: the sizing box flips between two speeds ~1.2× apart for seconds
// to minutes at a time (README, "Noise"), and a bound has to hold the
// spread of ten runs that straddle such a flip.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_fps", "frames/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"alloc_kb_per_frame", "kB", "lower", 0.05},
}

// perLayer comes from the traced pass. A layer a workload never calls
// reports 0 there: it took none of that workload's time.
var perLayer = []metricDef{
	// Exact model and coding outputs of the workload's fixed first cycle.
	{Name: "model.virtual_fps", Unit: "frames/s", Better: "higher"},
	{Name: "model.pred_error", Unit: "ratio", Better: "lower"},
	{Name: "codec.bits_per_frame", Unit: "bit", Better: "lower"},
	{Name: "codec.psnr_y_db", Unit: "dB", Better: "higher"},
	// Staged replay through codec.Encoder on one goroutine.
	{Name: "me.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "me.share", Unit: "ratio", Better: "lower"},
	{Name: "interp.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "interp.share", Unit: "ratio", Better: "lower"},
	{Name: "sme.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "sme.share", Unit: "ratio", Better: "lower"},
	{Name: "rstar.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "rstar.share", Unit: "ratio", Better: "lower"},
	{Name: "intra.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "intra.share", Unit: "ratio", Better: "lower"},
	{Name: "codec.begin_us", Unit: "us", Better: "lower"},
	{Name: "video.load_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "stage.cover_share", Unit: "ratio", Better: "higher"},
	// Direct calls into the R* kernels.
	{Name: "mc.decide_ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "transform.ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "deblock.ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "entropy.vlc_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "entropy.arith_ns_per_block", Unit: "ns/block", Better: "lower"},
	// codec.Encoder.EncodeFrame and the decoder.
	{Name: "codec.fps_serial", Unit: "frames/s", Better: "higher"},
	{Name: "codec.fps_workers", Unit: "frames/s", Better: "higher"},
	{Name: "codec.alloc_kb_per_frame", Unit: "kB", Better: "lower"},
	{Name: "codec.decode_ms_per_frame", Unit: "ms", Better: "lower"},
	// core.Framework around the codec.
	{Name: "core.tax_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.control_share", Unit: "ratio", Better: "lower"},
	{Name: "core.retries", Unit: "count", Better: "lower"},
	// Timing-only control path at the workload's frame size.
	{Name: "sched.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.overhead_us_p99", Unit: "us", Better: "lower"},
	{Name: "lp.solves_per_frame", Unit: "count", Better: "lower"},
	{Name: "lp.pivots_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.warm_rate", Unit: "ratio", Better: "higher"},
	{Name: "vcm.schedule_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.alloc_b_per_frame", Unit: "B", Better: "lower"},
	{Name: "check.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "telemetry.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "telemetry.allocs_per_frame", Unit: "count", Better: "lower"},
	// Device pool and the job service.
	{Name: "pool.acquire_us_p50", Unit: "us", Better: "lower"},
	{Name: "pool.repartitions_per_op", Unit: "count", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.drain_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.body_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	// Fleet coordinator.
	{Name: "fleet.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.direct_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.single_node_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "fleet.shards_per_stream", Unit: "count", Better: "higher"},
	{Name: "fleet.releases", Unit: "count", Better: "lower"},
	{Name: "fleet.route_lp_rate", Unit: "ratio", Better: "higher"},
	{Name: "fleet.route_warm_rate", Unit: "ratio", Better: "higher"},
	{Name: "fleet.affinity_hits", Unit: "count", Better: "higher"},
	// The tracing itself.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// metric is one reported value. N is the number of samples behind it
// (0 for counts and exact model outputs); Short marks a percentile with
// fewer than ten samples beyond it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Short bool    `json:"short,omitempty"`
}

// unitOf maps every metric of both tables to its unit.
var unitOf = func() map[string]string {
	units := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	return units
}()

// metricSet collects a run's values by name.
type metricSet map[string]metric

// set records a value under a name of the tables; n is the sample count.
func (m metricSet) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the tables")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// fill reports 0 for every metric of the table the workload did not set.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{Unit: d.Unit}
		}
	}
}

// setPercentile records the p-th percentile of xs and flags it when fewer
// than ten samples lie beyond it.
func (m metricSet) setPercentile(name string, xs []float64, p float64) {
	m.set(name, percentile(xs, p), len(xs))
	if !enoughBeyond(len(xs), p) {
		mt := m[name]
		mt.Short = true
		m[name] = mt
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of xs,
// or 0 for no samples. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// enoughBeyond reports whether at least ten of n samples lie beyond the
// p-th percentile — the rule for a percentile worth reading.
func enoughBeyond(n int, p float64) bool {
	if n == 0 {
		return false
	}
	return n-1-rank(n, p) >= 10
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
