package feves

import (
	"reflect"
	"testing"

	"feves/internal/platforms"
	"feves/internal/video"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Width: 1920, Height: 1088}.withDefaults()
	if c.SearchArea != 32 || c.RefFrames != 1 || c.IQP != 27 || c.PQP != 28 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestPlatformAccessors(t *testing.T) {
	pl := SysHK()
	if pl.Name() != "SysHK" {
		t.Fatal("name wrong")
	}
	devs := pl.Devices()
	if len(devs) != 5 || devs[0] != "GPU_K" || devs[1] != "CPU_H-core" {
		t.Fatalf("devices %v", devs)
	}
}

func TestSimulationReproducesHeadline(t *testing.T) {
	cfg := Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}
	sys, err := SteadyFPS(cfg, SysHK())
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := SteadyFPS(cfg, GPUKepler())
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := SteadyFPS(cfg, CPUHaswell())
	if err != nil {
		t.Fatal(err)
	}
	if sys < 25 {
		t.Fatalf("SysHK %.1f fps, expected real-time", sys)
	}
	if !(sys > gpu && gpu > cpu) {
		t.Fatalf("ordering violated: sys %.1f gpu %.1f cpu %.1f", sys, gpu, cpu)
	}
}

func TestSimulationRunAndReports(t *testing.T) {
	sim, err := NewSimulation(Config{Width: 1920, Height: 1088}, SysNF())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sim.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Intra || reports[0].Seconds != 0 {
		t.Fatal("first report should be the intra frame")
	}
	r := reports[4]
	if r.FPS <= 0 || r.Tau1 <= 0 || r.Tau2 < r.Tau1 || r.Seconds < r.Tau2 {
		t.Fatalf("inconsistent report %+v", r)
	}
	sum := 0
	for _, v := range r.MERows {
		sum += v
	}
	if sum != 68 {
		t.Fatalf("ME rows sum %d, want 68", sum)
	}
}

func TestEncoderEndToEnd(t *testing.T) {
	const w, h, n = 64, 48, 4
	cfg := Config{Width: w, Height: h, SearchArea: 16, RefFrames: 2}
	enc, err := NewEncoder(cfg, SysNF())
	if err != nil {
		t.Fatal(err)
	}
	src := video.NewSynthetic(w, h, n, 11)
	for i := 0; i < n; i++ {
		rep, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Bits <= 0 {
			t.Fatalf("frame %d reports no bits", i)
		}
		if i > 0 && rep.PSNRY < 25 {
			t.Fatalf("frame %d PSNR %.1f suspiciously low", i, rep.PSNRY)
		}
	}
	frames, err := Verify(enc.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if frames != n {
		t.Fatalf("verified %d frames, want %d", frames, n)
	}
}

func TestEncodeYUVRejectsBadSize(t *testing.T) {
	enc, err := NewEncoder(Config{Width: 64, Height: 48}, GPUFermi())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeYUV(make([]byte, 10)); err == nil {
		t.Fatal("short YUV buffer accepted")
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	if _, err := Verify([]byte("garbage")); err == nil {
		t.Fatal("garbage verified")
	}
}

func TestCustomPlatform(t *testing.T) {
	pl, err := CustomPlatform("lab", []float64{1.5, 0.8}, 8, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Devices()) != 10 {
		t.Fatalf("devices %v", pl.Devices())
	}
	if _, err := CustomPlatform("bad", []float64{-1}, 0, 0); err == nil {
		t.Fatal("negative speed accepted")
	}
	if _, err := CustomPlatform("bad", nil, 2, 0); err == nil {
		t.Fatal("zero CPU speed accepted")
	}
}

func TestBalancerKinds(t *testing.T) {
	cfg := Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}
	lpFPS, err := SteadyFPS(cfg, SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Balancer = BalancerEquidistant
	eqFPS, err := SteadyFPS(cfg, SysNFF())
	if err != nil {
		t.Fatal(err)
	}
	if lpFPS <= eqFPS {
		t.Fatalf("LP balancer (%.1f fps) should beat equidistant (%.1f fps) on a heterogeneous system", lpFPS, eqFPS)
	}
	cfg.Balancer = BalancerProportional
	if _, err := SteadyFPS(cfg, SysNFF()); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbAPI(t *testing.T) {
	pl := SysHK()
	pl.Perturb(func(frame, dev int) float64 {
		if frame == 3 && dev == 0 {
			return 4
		}
		return 1
	})
	sim, err := NewSimulation(Config{Width: 1920, Height: 1088}, pl)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sim.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if reports[3].Seconds <= reports[2].Seconds*1.2 {
		t.Fatalf("perturbed frame not slower: %v vs %v", reports[3].Seconds, reports[2].Seconds)
	}
	if reports[6].Seconds > reports[2].Seconds*1.25 {
		t.Fatalf("framework did not recover: %v vs %v", reports[6].Seconds, reports[2].Seconds)
	}
}

func TestArithmeticCodingOption(t *testing.T) {
	const w, h, n = 64, 48, 4
	src := video.NewSynthetic(w, h, n, 31)
	run := func(arith bool) (int, []byte) {
		cfg := Config{Width: w, Height: h, SearchArea: 16, ArithmeticCoding: arith}
		enc, err := NewEncoder(cfg, SysHK())
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < n; i++ {
			rep, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV())
			if err != nil {
				t.Fatal(err)
			}
			total += rep.Bits
		}
		return total, enc.Bitstream()
	}
	vlcBits, _ := run(false)
	arithBits, stream := run(true)
	if arithBits >= vlcBits {
		t.Fatalf("arithmetic coding (%d bits) should beat VLC (%d bits)", arithBits, vlcBits)
	}
	if frames, err := Verify(stream); err != nil || frames != n {
		t.Fatalf("arithmetic stream verification: %d frames, %v", frames, err)
	}
}

func TestFastMEOption(t *testing.T) {
	const w, h, n = 64, 48, 4
	src := video.NewSynthetic(w, h, n, 51)
	encode := func(algo string) []byte {
		cfg := Config{Width: w, Height: h, SearchArea: 16, FastME: algo}
		enc, err := NewEncoder(cfg, GPUFermi())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV()); err != nil {
				t.Fatal(err)
			}
		}
		return enc.Bitstream()
	}
	for _, algo := range []string{"", "full-search", "three-step", "diamond"} {
		stream := encode(algo)
		if frames, err := Verify(stream); err != nil || frames != n {
			t.Fatalf("algo %q: %d frames, %v", algo, frames, err)
		}
	}
	if _, err := NewEncoder(Config{Width: w, Height: h, FastME: "hexagon"}, GPUFermi()); err == nil {
		t.Fatal("unknown ME algorithm accepted")
	}
}

func TestRateControlOption(t *testing.T) {
	const w, h, n, target = 64, 64, 16, 6000
	src := video.NewSynthetic(w, h, n, 71)
	cfg := Config{Width: w, Height: h, SearchArea: 16, TargetBitsPerFrame: target}
	enc, err := NewEncoder(cfg, SysHK())
	if err != nil {
		t.Fatal(err)
	}
	var late, count int
	for i := 0; i < n; i++ {
		rep, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV())
		if err != nil {
			t.Fatal(err)
		}
		if i >= n/2 && !rep.Intra {
			late += rep.Bits
			count++
		}
	}
	avg := float64(late) / float64(count)
	if avg < target*0.5 || avg > target*1.6 {
		t.Fatalf("steady bits/frame %.0f far from target %d", avg, target)
	}
	if frames, err := Verify(enc.Bitstream()); err != nil || frames != n {
		t.Fatalf("rate-controlled stream: %d frames, %v", frames, err)
	}
}

func TestPredictionAccuracyConverges(t *testing.T) {
	// The performance characterization's τtot predictions track the
	// simulated reality within a modest band once converged.
	sim, err := NewSimulation(Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 2}, SysHK())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sim.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for _, r := range reports[6:] { // past ramp-up and initialization
		if r.PredictedSeconds == 0 {
			t.Fatalf("frame %d: no prediction recorded", r.Frame)
		}
		err := r.Seconds/r.PredictedSeconds - 1
		if err < 0 {
			err = -err
		}
		if err > worst {
			worst = err
		}
	}
	if worst > 0.25 {
		t.Fatalf("worst prediction error %.1f%% exceeds 25%%", worst*100)
	}
}

func TestBalancerHysteresisStabilizes(t *testing.T) {
	spread := func(h float64) float64 {
		cfg := Config{Width: 1920, Height: 1088, SearchArea: 64, RefFrames: 1, BalancerHysteresis: h}
		sim, err := NewSimulation(cfg, SysHK())
		if err != nil {
			t.Fatal(err)
		}
		reports, err := sim.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 1e9, 0.0
		for _, r := range reports[10:] {
			if r.Seconds < lo {
				lo = r.Seconds
			}
			if r.Seconds > hi {
				hi = r.Seconds
			}
		}
		return (hi - lo) / lo
	}
	without, with := spread(0), spread(0.03)
	if with >= without {
		t.Fatalf("hysteresis did not stabilize: %.1f%% -> %.1f%%", 100*without, 100*with)
	}
	if with > 0.08 {
		t.Fatalf("hysteresis spread %.1f%% still too wide", 100*with)
	}
}

func TestSlicesOption(t *testing.T) {
	const w, h, n = 64, 96, 3
	src := video.NewSynthetic(w, h, n, 121)
	cfg := Config{Width: w, Height: h, SearchArea: 16, Slices: 3, ArithmeticCoding: true}
	enc, err := NewEncoder(cfg, SysNF())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV()); err != nil {
			t.Fatal(err)
		}
	}
	if frames, err := Verify(enc.Bitstream()); err != nil || frames != n {
		t.Fatalf("sliced stream: %d frames, %v", frames, err)
	}
}

func TestAllPublicPlatformsSimulate(t *testing.T) {
	cfg := Config{Width: 1920, Height: 1088, SearchArea: 32, RefFrames: 1}
	for _, p := range []struct {
		name string
		pl   *Platform
	}{
		{"CPUNehalem", CPUNehalem()},
		{"GPUTesla", GPUTesla()},
	} {
		fps, err := SteadyFPS(cfg, p.pl)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if fps <= 0 {
			t.Fatalf("%s: %v fps", p.name, fps)
		}
	}
	dual, err := CustomDualCopySysHK()
	if err != nil {
		t.Fatal(err)
	}
	single, err := SteadyFPS(cfg, SysHK())
	if err != nil {
		t.Fatal(err)
	}
	dualFPS, err := SteadyFPS(cfg, dual)
	if err != nil {
		t.Fatal(err)
	}
	if dualFPS < single*0.98 {
		t.Fatalf("dual-copy SysHK (%v) slower than single (%v)", dualFPS, single)
	}
}

func TestVerifyConcealing(t *testing.T) {
	const w, h, n = 64, 96, 3
	src := video.NewSynthetic(w, h, n, 131)
	cfg := Config{Width: w, Height: h, SearchArea: 16, Slices: 3, ArithmeticCoding: true}
	enc, err := NewEncoder(cfg, GPUFermi())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := enc.EncodeYUV(src.FrameAt(i).PackedYUV()); err != nil {
			t.Fatal(err)
		}
	}
	stream := enc.Bitstream()
	// Clean stream: no concealment needed.
	frames, concealed, err := VerifyConcealing(stream)
	if err != nil || frames != n || concealed != 0 {
		t.Fatalf("clean stream: frames=%d concealed=%d err=%v", frames, concealed, err)
	}
	// Corrupt residual bytes until the strict verifier fails, then show
	// the concealing one survives.
	for pos := 60; pos < len(stream); pos += 3 {
		corrupt := append([]byte(nil), stream...)
		corrupt[pos] ^= 0x3C
		if _, err := Verify(corrupt); err == nil {
			continue // parsed by chance
		}
		frames, concealed, err := VerifyConcealing(corrupt)
		if err != nil {
			continue // header corruption is not concealable; try another byte
		}
		if frames == n && concealed > 0 {
			return // demonstrated
		}
	}
	t.Skip("no byte flip produced a concealable corruption in this stream")
}

// TestLookupPlatformCoversRegistry looks every registered name up through
// the public API — including sysnfk and sysnt, which feves-encode's own
// switch used to miss — and checks the named constructors are the same
// platforms, so the CLI names and the Go API cannot drift apart.
func TestLookupPlatformCoversRegistry(t *testing.T) {
	constructors := map[string]func() *Platform{
		"syshk": SysHK, "sysnf": SysNF, "sysnff": SysNFF, "sysnfk": SysNFK,
		"cpun": CPUNehalem, "cpuh": CPUHaswell,
		"gpuf": GPUFermi, "gpuk": GPUKepler, "gput": GPUTesla,
	}
	names := platforms.Names()
	if len(names) < len(constructors)+1 {
		t.Fatalf("registry lists %v, want every constructor plus sysnt", names)
	}
	for _, name := range names {
		pl, err := LookupPlatform(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := NewSimulation(Config{Width: 640, Height: 368}, pl); err != nil {
			t.Errorf("%s: not a usable platform: %v", name, err)
		}
		if mk, ok := constructors[name]; ok {
			if want := mk(); pl.Name() != want.Name() || !reflect.DeepEqual(pl.Devices(), want.Devices()) {
				t.Errorf("%s: lookup gives %s %v, constructor %s %v",
					name, pl.Name(), pl.Devices(), want.Name(), want.Devices())
			}
		}
	}
	if _, err := LookupPlatform("cray"); err == nil {
		t.Error("unknown platform name accepted")
	}
}
