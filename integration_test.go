// Cross-package integration tests: properties that must hold across the
// whole stack (public API → framework → VCM → codec → decoder).
package feves_test

import (
	"fmt"
	"testing"

	"feves"
	"feves/internal/video"
)

// encodeAll runs a full functional encode of n synthetic frames and
// returns the bitstream.
func encodeAll(t *testing.T, cfg feves.Config, pl *feves.Platform, n int, seed uint64) []byte {
	t.Helper()
	enc, err := feves.NewEncoder(cfg, pl)
	if err != nil {
		t.Fatal(err)
	}
	src := video.NewSynthetic(cfg.Width, cfg.Height, n, seed)
	for i := 0; i < n; i++ {
		if _, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV()); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Bitstream()
}

// TestBitstreamInvariantAcrossPlatformsAndBalancers is the repository's
// strongest end-to-end property: the coded output is a pure function of
// the content and coding parameters — the platform the work was balanced
// across and the balancing strategy must never leak into the bitstream.
func TestBitstreamInvariantAcrossPlatformsAndBalancers(t *testing.T) {
	const w, h, n = 64, 48, 5
	base := feves.Config{Width: w, Height: h, SearchArea: 16, RefFrames: 2}

	type variant struct {
		name string
		pl   *feves.Platform
		bal  feves.BalancerKind
	}
	variants := []variant{
		{"SysNF/lp", feves.SysNF(), feves.BalancerLP},
		{"SysNFF/lp", feves.SysNFF(), feves.BalancerLP},
		{"SysHK/lp", feves.SysHK(), feves.BalancerLP},
		{"SysHK/equidistant", feves.SysHK(), feves.BalancerEquidistant},
		{"SysHK/proportional", feves.SysHK(), feves.BalancerProportional},
		{"SysNFF/me-offload", feves.SysNFF(), feves.BalancerMEOffload},
		{"GPU_K/lp", feves.GPUKepler(), feves.BalancerLP},
		{"CPU_H/lp", feves.CPUHaswell(), feves.BalancerLP},
	}
	var ref []byte
	for _, v := range variants {
		cfg := base
		cfg.Balancer = v.bal
		stream := encodeAll(t, cfg, v.pl, n, 99)
		if ref == nil {
			ref = stream
			continue
		}
		if len(stream) != len(ref) {
			t.Fatalf("%s: stream length %d != reference %d", v.name, len(stream), len(ref))
		}
		for i := range stream {
			if stream[i] != ref[i] {
				t.Fatalf("%s: bitstream diverges at byte %d", v.name, i)
			}
		}
	}
}

// TestDeterminism: identical runs produce identical bitstreams and
// identical virtual timings — the reproducibility guarantee every
// experiment relies on.
func TestDeterminism(t *testing.T) {
	cfg := feves.Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 2}
	run := func() []feves.FrameReport {
		sim, err := feves.NewSimulation(cfg, feves.SysHK())
		if err != nil {
			t.Fatal(err)
		}
		reports, err := sim.Run(12)
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Seconds != b[i].Seconds || a[i].Tau1 != b[i].Tau1 || a[i].Tau2 != b[i].Tau2 {
			t.Fatalf("frame %d timings differ between identical runs", i)
		}
		if fmt.Sprint(a[i].MERows) != fmt.Sprint(b[i].MERows) {
			t.Fatalf("frame %d distributions differ between identical runs", i)
		}
	}
	sa := encodeAll(t, feves.Config{Width: 48, Height: 48}, feves.SysNF(), 4, 7)
	sb := encodeAll(t, feves.Config{Width: 48, Height: 48}, feves.SysNF(), 4, 7)
	if string(sa) != string(sb) {
		t.Fatal("functional encodes differ between identical runs")
	}
}

// TestDecoderNeverPanicsOnCorruption flips bytes throughout a valid stream
// and truncates it at many points: decoding must fail gracefully (error or
// mismatching output), never panic.
func TestDecoderNeverPanicsOnCorruption(t *testing.T) {
	for _, arith := range []bool{false, true} {
		cfg := feves.Config{Width: 48, Height: 48, SearchArea: 16, ArithmeticCoding: arith}
		stream := encodeAll(t, cfg, feves.GPUFermi(), 3, 13)
		decodeAll := func(data []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on corrupt input (arith=%v): %v", arith, r)
				}
			}()
			n, _ := feves.Verify(data)
			_ = n
		}
		// Byte flips.
		for pos := 0; pos < len(stream); pos += 11 {
			corrupt := append([]byte(nil), stream...)
			corrupt[pos] ^= 0x5A
			decodeAll(corrupt)
		}
		// Truncations.
		for cut := 0; cut < len(stream); cut += 13 {
			decodeAll(stream[:cut])
		}
	}
}

// TestLongSimulationStaysStable runs 200 frames with perturbations and the
// RF ramp and checks the balancer never degenerates.
func TestLongSimulationStaysStable(t *testing.T) {
	pl := feves.SysNFF()
	pl.Perturb(func(frame, dev int) float64 {
		if frame%37 == 0 && dev == frame/37%2 {
			return 2 // periodic disturbances alternating between the GPUs
		}
		return 1
	})
	sim, err := feves.NewSimulation(feves.Config{
		Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 3,
	}, pl)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sim.Run(201)
	if err != nil {
		t.Fatal(err)
	}
	// Steady frames (past ramp, not perturbed) stay within a sane band.
	var base float64
	count := 0
	for _, r := range reports[10:] {
		if r.Frame%37 == 0 {
			continue
		}
		base += r.Seconds
		count++
	}
	base /= float64(count)
	for _, r := range reports[10:] {
		if r.Frame%37 == 0 {
			continue
		}
		if r.Seconds > base*1.6 {
			t.Fatalf("frame %d: %.1f ms against steady %.1f ms — balancer degenerated",
				r.Frame, r.Seconds*1e3, base*1e3)
		}
	}
}

// TestGOPStructureInSimulation: with IntraPeriod set, intra frames appear
// on schedule and the inter-loop timing restarts its RF ramp after each.
func TestGOPStructureInSimulation(t *testing.T) {
	sim, err := feves.NewSimulation(feves.Config{
		Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 4, IntraPeriod: 10,
	}, feves.SysHK())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sim.Run(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		wantIntra := r.Frame%10 == 0
		if r.Intra != wantIntra {
			t.Fatalf("frame %d: intra=%v, want %v", r.Frame, r.Intra, wantIntra)
		}
	}
	// Frame 11 (1 usable RF after the IDR at 10) must be cheaper than
	// frame 19 (4 usable RFs): the ramp restarted.
	if reports[11].Seconds >= reports[19].Seconds {
		t.Fatalf("RF ramp did not restart after IDR: frame 11 %.1f ms vs frame 19 %.1f ms",
			reports[11].Seconds*1e3, reports[19].Seconds*1e3)
	}
}

// TestFunctionalIDRThroughFramework: a functional encode with periodic IDR
// through the public API still verifies end to end.
func TestFunctionalIDRThroughFramework(t *testing.T) {
	const w, h, n = 48, 48, 8
	cfg := feves.Config{Width: w, Height: h, SearchArea: 16, RefFrames: 2, IntraPeriod: 3}
	stream := encodeAll(t, cfg, feves.SysNF(), n, 17)
	frames, err := feves.Verify(stream)
	if err != nil {
		t.Fatal(err)
	}
	if frames != n {
		t.Fatalf("verified %d frames, want %d", frames, n)
	}
}

// TestFunctionalSoak encodes a longer QCIF sequence through the full
// framework with every extension enabled and verifies the stream end to
// end — the closest thing to a production run this repository has.
func TestFunctionalSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const w, h, n = 176, 144, 24
	cfg := feves.Config{
		Width: w, Height: h,
		SearchArea:         32,
		RefFrames:          2,
		ArithmeticCoding:   true,
		Slices:             3,
		Checksum:           true,
		IntraPeriod:        10,
		TargetBitsPerFrame: 30000,
	}
	enc, err := feves.NewEncoder(cfg, feves.SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	src := video.NewSyntheticClass(w, h, n, 7, video.HighMotion)
	var totalBits int
	for i := 0; i < n; i++ {
		rep, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV())
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		totalBits += rep.Bits
		if !rep.Intra && rep.PSNRY < 24 {
			t.Fatalf("frame %d: PSNR %.1f collapsed", i, rep.PSNRY)
		}
	}
	frames, err := feves.Verify(enc.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if frames != n {
		t.Fatalf("verified %d frames, want %d", frames, n)
	}
	if totalBits <= 0 {
		t.Fatal("no bits coded")
	}
}
