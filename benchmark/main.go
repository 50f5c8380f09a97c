// Command benchmark is the repo's wall-clock benchmark of record: five
// workloads, from the bare kernels to the fleet front door, each measured
// from outside by timing calls into the exported functions of the layer it
// exercises. See README.md in this directory and BENCHMARK.json at the
// repo root.
//
//	go run ./benchmark --workload encode_cif_fs --seed 1 --seconds 15 --trace 0
//	go run ./benchmark -runs 5 -out a      # all five workloads, five times
//	go run ./benchmark -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and a cheap set-up
// again until setupBudget is spent or maxSetups is reached, so that the
// median of a set-up of a few milliseconds rests on more than three
// samples. setup_s is the median; the last instance is the one measured.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

// runResult is one run of one workload, as written to result.json.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     int       `json:"trace"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Succeeded int       `json:"succeeded"`
	Failed    int       `json:"failed"`
	Wrong     int       `json:"wrong_outputs"`
	Frames    int       `json:"frames"`
	Digest    string    `json:"output_sha256,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// resultFile is result.json: the runs and the context they ran in.
type resultFile struct {
	Context map[string]string `json:"context"`
	Runs    []runResult       `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 15, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
		out     = flag.String("out", "benchmark/out", "directory for result.json and trace_<workload>.json (empty: write nothing)")
		runs    = flag.Int("runs", 1, "repeat each workload this many times")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var selected []workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	win := time.Duration(*seconds * float64(time.Second))
	file := resultFile{Context: runContext()}
	correct := true
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			res, spans, err := runWorkload(w, *seed, win, *trace, setupBudget)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			file.Runs = append(file.Runs, res)
			correct = correct && res.Correct
			if spans != nil {
				printSpanTable(os.Stdout, spans)
			}
			printRun(os.Stdout, res)
			if *out != "" && spans != nil {
				if err := writeJSONFile(filepath.Join(*out, "trace_"+w.name+".json"),
					func(f io.Writer) error { return writeChrome(f, spans) }); err != nil {
					fatal(err)
				}
			}
		}
	}
	if *out != "" {
		err := writeJSONFile(filepath.Join(*out, "result.json"), func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(file)
		})
		if err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload sets the workload up (budget bounds the repeats beyond
// minSetups), then either measures the timed window
// and checks its outputs (trace 0) or runs the traced pass (trace 1).
func runWorkload(w workload, seed uint64, win time.Duration, trace int, budget time.Duration) (runResult, []span, error) {
	res := runResult{Workload: w.name, Seed: seed, Seconds: win.Seconds(), Trace: trace, Metrics: metricSet{}}
	var inst instance
	var setups []float64
	begun := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begun) < budget); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return res, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	if trace != 0 {
		tr := newTracer()
		if err := inst.layers(win, tr, res.Metrics); err != nil {
			return res, nil, err
		}
		res.Metrics.fill(perLayer)
		// Every root span is one frame, Step or op the pass drove; a
		// failed or mismatching one ends the pass with an error above.
		for _, s := range tr.spans {
			if s.Parent < 0 {
				res.Attempted++
			}
		}
		res.Correct, res.Succeeded = true, res.Attempted
		return res, tr.spans, nil
	}

	m := inst.measure(win)
	res.Wrong, res.Digest = inst.verify()
	res.Attempted, res.Failed, res.Frames = m.attempted, m.failed+res.Wrong, m.frames
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	res.Succeeded = res.Attempted - res.Failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics.set("setup_s", median(setups), len(setups))
	res.Metrics.set("wall_fps", float64(m.frames)/m.wall.Seconds(), m.frames)
	res.Metrics.setPercentile("op_ms_p50", m.opMs, 0.5)
	res.Metrics.setPercentile("op_ms_p90", m.opMs, 0.9)
	res.Metrics.set("alloc_kb_per_frame", float64(m.allocated)/1e3/float64(max(1, m.frames)), m.frames)
	return res, nil, nil
}

// printRun prints one row per metric — name, value, unit, sample count —
// and, as the last line, the JSON object the driver reads.
func printRun(w io.Writer, res runResult) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%d: attempted=%d succeeded=%d failed=%d frames=%d",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Succeeded, res.Failed, res.Frames)
	if res.Digest != "" {
		fmt.Fprintf(w, " sha256=%s", res.Digest)
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if res.Trace != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		mt := res.Metrics[d.Name]
		note := ""
		if mt.Short {
			note = "  (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "%-28s %14.6g %-9s n=%d%s\n", d.Name, mt.Value, mt.Unit, mt.N, note)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	for name, mt := range res.Metrics {
		last.Metrics[name] = wire{mt.Value, mt.Unit}
	}
	line, _ := json.Marshal(last) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

func writeJSONFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runContext records what the numbers depend on besides the code.
func runContext() map[string]string {
	ctx := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"commit":     "unknown",
		"cpu":        "unknown",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		ctx["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				ctx["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return ctx
}
