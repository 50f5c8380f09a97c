package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs
// (nearest rank).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)
}

// verdict compares two sides of one metric. worse is how far b's median
// is on the wrong side of a's, as a share of a's median. The pair is
// unresolved when the sides' quartile ranges together are wider than the
// bound, unless every run of one side reads better than every run of the
// other.
func verdict(a, b []float64, better string, bound float64) (worse float64, word string) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 {
		return 0, "no baseline"
	}
	worse = (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	spread := ((q3a - q1a) + (q3b - q1b)) / ma
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	disjoint := sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
	switch {
	case spread > bound && !disjoint:
		return worse, "unresolved"
	case worse > bound:
		return worse, "REGRESSION"
	case worse < -bound:
		return worse, "improved"
	}
	return worse, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files — both medians, the change and the bound — and reports
// whether any metric regressed. Output digests are compared too.
func compareFiles(w io.Writer, pathA, pathB, specPath string) (regressed bool, err error) {
	var spec benchmarkSpec
	var a, b resultFile
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	type key struct{ workload, metric string }
	collect := func(f resultFile) (map[key][]float64, map[string]string, []string) {
		vals, digests := map[key][]float64{}, map[string]string{}
		var order []string
		for _, r := range f.Runs {
			if r.Trace != 0 {
				continue
			}
			if _, seen := digests[r.Workload]; !seen {
				order = append(order, r.Workload)
			}
			digests[r.Workload] = r.Digest
			for name, mt := range r.Metrics {
				vals[key{r.Workload, name}] = append(vals[key{r.Workload, name}], mt.Value)
			}
		}
		return vals, digests, order
	}
	va, da, order := collect(a)
	vb, db, _ := collect(b)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median)\tb (median)\tworse by\tbound\tverdict")
	for _, wl := range order {
		for _, d := range spec.EndToEnd {
			xa, xb := va[key{wl, d.Name}], vb[key{wl, d.Name}]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, word := verdict(xa, xb, d.Better, d.Bound)
			regressed = regressed || word == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				wl, d.Name, d.Unit, median(xa), median(xb), 100*worse, 100*d.Bound, word)
		}
		word := "same"
		if da[wl] != db[wl] {
			word = "DIFFERENT"
		}
		fmt.Fprintf(tw, "%s\toutput_sha256\t\t%.12s\t%.12s\t\t\t%s\n", wl, da[wl], db[wl], word)
	}
	return regressed, tw.Flush()
}
