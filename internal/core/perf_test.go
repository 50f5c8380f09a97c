package core

import (
	"testing"

	"feves/internal/device"
	"feves/internal/telemetry"
)

// TestFrameLoopZeroAllocs asserts the tentpole's end-to-end contract:
// once the model has converged, a full timing-only EncodeNext — LP
// balance with a warm solver, schedule build on the recycled simulator,
// model update, result assembly — allocates nothing per frame.
func TestFrameLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fw, err := New(timingOpts(device.SysNFF(), 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := fw.EncodeNext(nil); err != nil {
			t.Fatal(err)
		}
	}
	// The EWMA model keeps shifting the distribution — and with it the
	// per-frame task shapes — for a few dozen frames; every new shape can
	// grow a retained buffer once. Steady state needs the model converged.
	for i := 0; i < 40; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state EncodeNext allocates %v per frame, want 0", n)
	}
}

// TestFrameLoopZeroAllocsObserved extends the zero-alloc contract to a
// fully observed, session-scoped frame loop: metrics registry, bounded
// trace ring (sized to wrap mid-run) and flight recorder all enabled.
// Steady-state observability must be free — the cached instruments, the
// slot-reusing rings and the nil-Events guards leave EncodeNext at zero
// allocations per frame with everything on.
func TestFrameLoopZeroAllocsObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tel := &telemetry.Telemetry{
		Metrics: telemetry.NewRegistry(),
		Trace:   telemetry.NewTraceWriterCap(512), // wraps during warmup
		Flight:  telemetry.NewFlightRecorder(0),
	}
	opts := timingOpts(device.SysNFF(), 32, 1)
	opts.Telemetry = tel.ForSession("tenant-0")
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, err := fw.EncodeNext(nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		step()
	}
	// The ring must already have wrapped so the measurement exercises the
	// overwrite path, not the initial append growth.
	if tel.Trace.Dropped() == 0 {
		t.Fatal("trace ring did not wrap during warmup; enlarge the warmup or shrink the cap")
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("observed steady-state EncodeNext allocates %v per frame, want 0", n)
	}
	if tel.Flight.Depth() == 0 || len(tel.Flight.Doc().Frames) == 0 {
		t.Fatal("flight recorder committed no frames despite being enabled")
	}
}

// pairOpts is timingOpts with the dual-chain frame-parallel path armed.
func pairOpts(sa, rf int) Options {
	opts := timingOpts(device.SysNFF(), sa, rf)
	opts.Codec.Chains = 2
	opts.FrameParallel = true
	return opts
}

// TestPairLoopZeroAllocs extends the zero-alloc contract to two frames in
// flight: a steady-state EncodePair — two chain-selected LP balances, the
// joint interleaved schedule on the recycled simulator, two model updates
// and two result assemblies — allocates nothing per pair.
func TestPairLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fw, err := New(pairOpts(32, 1))
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, _, _, err := fw.EncodePair(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Twice the serial warmup: each chain's shapes converge at half rate,
	// and the pair scratch (tasks, spans, deps) grows once per new shape.
	for i := 0; i < 80; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("steady-state EncodePair allocates %v per pair, want 0", n)
	}
}

// TestPairLoopZeroAllocsObserved is the same ceiling with every sink on. A
// pair's two records reach the flight ring with and without LP work in turn
// (the window's solves are accounted to its first frame), so the ring's
// retained LP cells are what keeps this at zero.
func TestPairLoopZeroAllocsObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tel := &telemetry.Telemetry{
		Metrics: telemetry.NewRegistry(),
		Trace:   telemetry.NewTraceWriterCap(512),
		Flight:  telemetry.NewFlightRecorder(0),
	}
	opts := pairOpts(32, 1)
	opts.Telemetry = tel.ForSession("tenant-0")
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if _, _, _, err := fw.EncodePair(nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("observed steady-state EncodePair allocates %v per pair, want 0", n)
	}
	frames := tel.Flight.Doc().Frames
	a, b := frames[len(frames)-2], frames[len(frames)-1]
	if a.LP == nil || b.LP != nil || a.PairMakespan == 0 || a.PairMakespan != b.PairMakespan {
		t.Fatalf("last pair in the flight ring: lp %v/%v, pair_seconds %v/%v", a.LP, b.LP, a.PairMakespan, b.PairMakespan)
	}
}

// BenchmarkFrameParallelPair measures the joint two-frame framework cost:
// the frame-parallel counterpart of BenchmarkSimulatedFrame (one iteration
// encodes two frames). Gated by the benchmark-regression harness.
func BenchmarkFrameParallelPair(b *testing.B) {
	fw, err := New(pairOpts(32, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if _, _, _, err := fw.EncodePair(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fw.EncodePair(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedFrame measures the whole per-frame framework cost in
// timing-only mode: Algorithm 1's iterative phase end to end. This is
// the headline number of the benchmark-regression harness.
func BenchmarkSimulatedFrame(b *testing.B) {
	fw, err := New(timingOpts(device.SysNFF(), 32, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := fw.EncodeNext(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.EncodeNext(nil); err != nil {
			b.Fatal(err)
		}
	}
}
