package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestFig6aShape(t *testing.T) {
	series := Fig6a()
	if len(series) != 7 {
		t.Fatalf("%d series, want 7", len(series))
	}
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Label] = s
		// fps strictly decreases with SA (ME load quadruples each step).
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("%s: fps did not fall between SA %g and %g (%v)", s.Label, s.X[i-1], s.X[i], s.Y)
			}
		}
	}
	// Paper claims at SA 32, 1 RF: both GPUs real-time; all three systems
	// real-time; CPUs not; SysHK real-time even at SA 64.
	rt := func(name string, idx int) bool { return byName[name].Y[idx] >= 25 }
	for _, name := range []string{"GPU_F", "GPU_K", "SysNF", "SysNFF", "SysHK"} {
		if !rt(name, 0) {
			t.Errorf("%s should be real-time at SA 32: %v fps", name, byName[name].Y[0])
		}
	}
	for _, name := range []string{"CPU_N", "CPU_H"} {
		if rt(name, 0) {
			t.Errorf("%s should not be real-time: %v fps", name, byName[name].Y[0])
		}
	}
	if !rt("SysHK", 1) {
		t.Errorf("SysHK should stay real-time at SA 64: %v fps", byName["SysHK"].Y[1])
	}
	// Every system beats its constituent single devices at every SA.
	for i := range byName["SysHK"].Y {
		if byName["SysHK"].Y[i] <= byName["GPU_K"].Y[i] {
			t.Errorf("SysHK not above GPU_K at SA %g", byName["SysHK"].X[i])
		}
		if byName["SysNFF"].Y[i] <= byName["GPU_F"].Y[i] {
			t.Errorf("SysNFF not above GPU_F at SA %g", byName["SysNFF"].X[i])
		}
	}
}

func TestFig6bShape(t *testing.T) {
	series := Fig6b()
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Label] = s
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] >= s.Y[i-1] {
				t.Errorf("%s: fps did not fall from %g to %g RFs", s.Label, s.X[i-1], s.X[i])
			}
		}
	}
	// Paper: SysHK real-time up to 4 RFs, outperforming SysNFF and SysNF.
	sysHK := byName["SysHK"].Y
	if sysHK[3] < 25 {
		t.Errorf("SysHK at 4 RFs = %.1f fps, paper says real-time", sysHK[3])
	}
	if sysHK[7] >= 25 {
		t.Errorf("SysHK at 8 RFs = %.1f fps, should be below real-time", sysHK[7])
	}
	for i := range sysHK {
		if sysHK[i] <= byName["SysNFF"].Y[i] || sysHK[i] <= byName["SysNF"].Y[i] {
			t.Errorf("SysHK should outperform SysNFF and SysNF at %g RFs", byName["SysHK"].X[i])
		}
	}
}

func TestFig7aShape(t *testing.T) {
	series := Fig7a()
	if len(series) != 2 || len(series[0].Y) != 100 {
		t.Fatalf("want 2 series of 100 frames")
	}
	for _, s := range series {
		// Frame 1 (equidistant) is slower than the balanced steady state.
		tail := avg(s.Y[10:])
		if s.Y[0] <= tail {
			t.Errorf("%s: equidistant frame 1 (%.1f ms) should exceed steady %.1f ms", s.Label, s.Y[0], tail)
		}
		// Near-constant steady state: relative spread below 20%. (The
		// balancer occasionally flips between near-equivalent optima under
		// the 2% kernel jitter, giving brief ≈10% excursions, like the
		// small wiggles visible in the paper's Fig. 7(a).)
		lo, hi := minMax(s.Y[10:])
		if (hi-lo)/tail > 0.20 {
			t.Errorf("%s: steady state not near-constant (%.1f..%.1f ms)", s.Label, lo, hi)
		}
	}
	// 1 RF real-time at SA 64 (≤40 ms), as the paper reports.
	if avg(series[0].Y[10:]) > 40 {
		t.Errorf("1RF steady %.1f ms, want ≤40 (real-time)", avg(series[0].Y[10:]))
	}
}

func TestFig7bShape(t *testing.T) {
	series := Fig7b()
	if len(series) != 5 {
		t.Fatalf("want 5 RF series")
	}
	// Ramp-up slopes: inter-frame f searches min(f, rf) references, so for
	// rf ≥ 3 the time keeps rising from frame 2 (2 usable refs) until
	// frame rf (rf usable refs) — the slopes of Fig. 7(b).
	for i, s := range series {
		rf := i + 1
		if rf >= 3 {
			if s.Y[rf-1] <= s.Y[1] {
				t.Errorf("%dRF: no ramp-up slope (frame %d %.1f ms vs frame 2 %.1f ms)", rf, rf, s.Y[rf-1], s.Y[1])
			}
		}
	}
	// 4 RFs stays real-time (≤40 ms steady), 5 RFs does not.
	if v := avg(series[3].Y[20:60]); v > 40 {
		t.Errorf("4RF steady %.1f ms, want real-time", v)
	}
	if v := avg(series[4].Y[20:60]); v < 40 {
		t.Errorf("5RF steady %.1f ms, expected above real-time", v)
	}
	// Perturbation spikes at the paper's frames, with fast recovery.
	oneRF := series[0].Y
	base := avg(oneRF[10:60])
	for _, f := range []int{76, 81} {
		if oneRF[f-1] < base*1.5 {
			t.Errorf("1RF: no spike at frame %d (%.1f ms vs base %.1f ms)", f, oneRF[f-1], base)
		}
		if oneRF[f+1] > base*1.25 {
			t.Errorf("1RF: frame %d did not recover (%.1f ms vs base %.1f ms)", f+2, oneRF[f+1], base)
		}
	}
	twoRF := series[1].Y
	base2 := avg(twoRF[40:60])
	for _, f := range []int{31, 71, 92} {
		if twoRF[f-1] < base2*1.5 {
			t.Errorf("2RF: no spike at frame %d", f)
		}
	}
}

func TestSpeedupsTable(t *testing.T) {
	tab := Speedups()
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	get := func(row int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[row][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// SysHK vs GPU_K ≈ 1.3.
	if v := get(0); v < 1.1 || v > 1.6 {
		t.Errorf("SysHK/GPU_K = %v, paper ~1.3", v)
	}
	// SysHK vs CPU_H ≈ 3.
	if v := get(1); v < 2.3 || v > 4.5 {
		t.Errorf("SysHK/CPU_H = %v, paper ~3", v)
	}
	// SysNFF vs GPU_F up to 2.2.
	if v := get(2); v < 1.8 || v > 2.6 {
		t.Errorf("SysNFF/GPU_F = %v, paper up to 2.2", v)
	}
	// SysNFF vs CPU_N ≈ 5.
	if v := get(3); v < 3.5 || v > 7 {
		t.Errorf("SysNFF/CPU_N = %v, paper ~5", v)
	}
}

func TestOverheadTable(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget: race instrumentation slows the LP ~10x")
	}
	// The paper's 2 ms is asserted on the average row: one descheduled
	// sample on a loaded host moves the worst row past it without saying
	// anything about the scheduler. The worst sample stays in the printed
	// table and in the feves-bench -exp perf report.
	tab := Overhead()
	avg, err := strconv.ParseFloat(tab.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if avg >= 2 {
		t.Errorf("average scheduling overhead %.3f ms exceeds the paper's 2 ms", avg)
	}
}

func TestModuleShareTable(t *testing.T) {
	tab := ModuleShare()
	for _, row := range tab.Rows {
		share, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if share < 80 || share > 98 {
			t.Errorf("%s: ME+INT+SME share %.1f%%, paper says ≈90%%", row[0], share)
		}
	}
}

func TestAblationBalancers(t *testing.T) {
	tab := AblationBalancers()
	for _, row := range tab.Rows {
		lp, _ := strconv.ParseFloat(row[1], 64)
		eq, _ := strconv.ParseFloat(row[3], 64)
		if lp <= eq {
			t.Errorf("%s: LP (%.1f) should beat equidistant (%.1f)", row[0], lp, eq)
		}
	}
}

func TestAblationEngines(t *testing.T) {
	tab := AblationEngines()
	parse := func(i int) float64 {
		v, _ := strconv.ParseFloat(tab.Rows[i][1], 64)
		return v
	}
	paper, dual, noReuse := parse(0), parse(1), parse(2)
	if dual < paper*0.99 {
		t.Errorf("dual copy engines (%.1f fps) should not lose to single (%.1f fps)", dual, paper)
	}
	if noReuse > paper {
		t.Errorf("disabling data reuse (%.1f fps) should not beat the paper design (%.1f fps)", noReuse, paper)
	}
}

func TestFormatters(t *testing.T) {
	s := FormatSeries("t", "x", []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{3, 4}}})
	if !strings.Contains(s, "# t") || !strings.Contains(s, "3.00") {
		t.Fatalf("series format:\n%s", s)
	}
	if FormatSeries("empty", "x", nil) == "" {
		t.Fatal("empty series format")
	}
	tab := FormatTable(Table{Title: "T", Columns: []string{"a", "b"}, Rows: [][]string{{"1", "22"}}})
	if !strings.Contains(tab, "# T") || !strings.Contains(tab, "22") {
		t.Fatalf("table format:\n%s", tab)
	}
}

func avg(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return
}

func TestAblationIncludesMEOffload(t *testing.T) {
	tab := AblationBalancers()
	if len(tab.Columns) != 5 {
		t.Fatalf("columns %v", tab.Columns)
	}
	var nf, nff float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		lp, _ := strconv.ParseFloat(row[1], 64)
		if v >= lp {
			t.Errorf("%s: ME offload (%.1f) should lose to full collaboration (%.1f)", row[0], v, lp)
		}
		switch row[0] {
		case "SysNF":
			nf = v
		case "SysNFF":
			nff = v
		}
	}
	// The paper's scalability argument: single-module offload cannot use a
	// second GPU, so SysNFF ≈ SysNF under it.
	if nff > nf*1.1 {
		t.Errorf("ME offload scaled with a second GPU (%.1f vs %.1f) — it must not", nff, nf)
	}
}

func TestPredictionAccuracyTable(t *testing.T) {
	tab := PredictionAccuracy()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		mean, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if mean > 15 {
			t.Errorf("%s: mean prediction error %.1f%% too high", row[0], mean)
		}
	}
}

func TestWorkloadPredictabilityTable(t *testing.T) {
	tab := WorkloadPredictability()
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var fullVals, diamondVals []float64
	for _, row := range tab.Rows {
		f, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		d, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		fullVals = append(fullVals, f)
		diamondVals = append(diamondVals, d)
		if d >= f {
			t.Errorf("%s: diamond (%v) not cheaper than full search (%v)", row[0], d, f)
		}
	}
	// FSBM count identical across all content classes.
	if fullVals[0] != fullVals[1] || fullVals[1] != fullVals[2] {
		t.Fatalf("full-search counts vary with content: %v", fullVals)
	}
	// Diamond count varies.
	if diamondVals[0] == diamondVals[1] && diamondVals[1] == diamondVals[2] {
		t.Fatalf("diamond counts identical across content: %v", diamondVals)
	}
}

func TestGPUScalingTable(t *testing.T) {
	tab := GPUScaling()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var fps []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, v)
	}
	// More GPUs never hurt, and 2 GPUs must help noticeably.
	for i := 1; i < len(fps); i++ {
		if fps[i] < fps[i-1]*0.98 {
			t.Fatalf("adding GPU %d reduced fps: %v", i+1, fps)
		}
	}
	if fps[1] < fps[0]*1.25 {
		t.Fatalf("2nd GPU gained too little: %v", fps)
	}
	// Efficiency declines (Amdahl): per-GPU speedup at 4 is below at 2.
	if fps[3]/4 >= fps[1]/2 {
		t.Fatalf("no saturation visible: %v", fps)
	}
}
