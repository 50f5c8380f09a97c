// Package trace renders the per-frame schedules produced by the Video
// Coding Manager as human-readable Gantt charts and CSV, the tooling behind
// cmd/feves-trace. It makes the paper's Fig. 4 directly observable: which
// kernels and transfers each device's streams executed, how they overlapped,
// and where the τ1/τ2 synchronization points fell.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"feves/internal/vcm"
)

// Gantt renders the spans as an ASCII Gantt chart of the given width. Rows
// are resources in first-use order; '#' marks busy time.
func Gantt(ft vcm.FrameTiming, width int) string {
	if width < 20 {
		width = 20
	}
	if len(ft.Spans) == 0 || ft.Tot <= 0 {
		return "(empty schedule)\n"
	}
	var order []string
	rows := map[string][]vcm.TaskSpan{}
	for _, s := range ft.Spans {
		if _, ok := rows[s.Resource]; !ok {
			order = append(order, s.Resource)
		}
		rows[s.Resource] = append(rows[s.Resource], s)
	}
	nameW := 0
	for _, n := range order {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	// col maps a time to its chart column, clamped into the chart: spans and
	// markers may lie outside [0, τtot] (a flight document is outside
	// input), and a NaN lands on column 0.
	scale := float64(width) / ft.Tot
	col := func(t float64) int {
		p := t * scale
		switch {
		case !(p > 0):
			return 0
		case p >= float64(width):
			return width - 1
		}
		return int(p)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "frame %d: τ1=%.2fms τ2=%.2fms τtot=%.2fms (R* on device %d)\n",
		ft.Frame, ft.Tau1*1e3, ft.Tau2*1e3, ft.Tot*1e3, ft.RStarDev)
	for _, name := range order {
		line := make([]byte, width)
		for i := range line {
			line[i] = '.'
		}
		for _, s := range rows[name] {
			for i, hi := col(s.Start), col(s.End); i <= hi; i++ {
				line[i] = '#'
			}
		}
		// Synchronization markers.
		for _, m := range []struct {
			t float64
			c byte
		}{{ft.Tau1, '1'}, {ft.Tau2, '2'}} {
			if p := col(m.t); line[p] == '.' {
				line[p] = m.c
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, name, line)
	}
	return b.String()
}

// CSV renders the spans as comma-separated records sorted by start time:
// frame,rstar_dev,resource,label,start_ms,end_ms. The frame index and R*
// placement repeat on every record so per-frame CSVs stay unambiguous when
// concatenated across a run.
func CSV(ft vcm.FrameTiming) string {
	spans := append([]vcm.TaskSpan(nil), ft.Spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Resource < spans[j].Resource
	})
	var b strings.Builder
	b.WriteString("frame,rstar_dev,resource,label,start_ms,end_ms\n")
	for _, s := range spans {
		fmt.Fprintf(&b, "%d,%d,%s,%s,%.4f,%.4f\n",
			ft.Frame, ft.RStarDev, s.Resource, s.Label, s.Start*1e3, s.End*1e3)
	}
	return b.String()
}

// Busy returns each resource's busy time as a fraction of τtot, a quick
// utilization summary.
func Busy(ft vcm.FrameTiming) map[string]float64 {
	out := map[string]float64{}
	for _, s := range ft.Spans {
		out[s.Resource] += s.End - s.Start
	}
	for k := range out {
		if ft.Tot > 0 {
			out[k] /= ft.Tot
		}
	}
	return out
}

// SVG renders the schedule as a self-contained SVG Gantt chart: one lane
// per resource, one rectangle per task, with dashed τ1/τ2 markers. Width
// is the drawing width in pixels.
func SVG(ft vcm.FrameTiming, width int) string {
	const laneH, pad, labelW = 22, 4, 180
	if width < 200 {
		width = 200
	}
	if len(ft.Spans) == 0 || ft.Tot <= 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="20"><text x="4" y="14">empty schedule</text></svg>`
	}
	var order []string
	lane := map[string]int{}
	for _, s := range ft.Spans {
		if _, ok := lane[s.Resource]; !ok {
			lane[s.Resource] = len(order)
			order = append(order, s.Resource)
		}
	}
	height := len(order)*(laneH+pad) + 30
	scale := float64(width-labelW-10) / ft.Tot
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n",
		width, height)
	fmt.Fprintf(&b, `<text x="4" y="14">frame %d: τ1=%.2fms τ2=%.2fms τtot=%.2fms</text>`+"\n",
		ft.Frame, ft.Tau1*1e3, ft.Tau2*1e3, ft.Tot*1e3)
	for i, name := range order {
		y := 22 + i*(laneH+pad)
		fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`+"\n", y+laneH-7, xmlEscape(name))
	}
	for _, s := range ft.Spans {
		y := 22 + lane[s.Resource]*(laneH+pad)
		x := float64(labelW) + s.Start*scale
		w := (s.End - s.Start) * scale
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s [%.3f–%.3f ms]</title></rect>`+"\n",
			x, y, w, laneH, taskColor(s.Label), xmlEscape(s.Label), s.Start*1e3, s.End*1e3)
	}
	for _, m := range []struct {
		t     float64
		label string
	}{{ft.Tau1, "τ1"}, {ft.Tau2, "τ2"}} {
		x := float64(labelW) + m.t*scale
		fmt.Fprintf(&b, `<line x1="%.1f" y1="18" x2="%.1f" y2="%d" stroke="#444" stroke-dasharray="4,3"/>`+"\n",
			x, x, height-6)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="#444">%s</text>`+"\n", x+2, height-8, m.label)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// taskColor maps schedule task labels to fill colors: kernels by module,
// transfers in grays.
func taskColor(label string) string {
	switch {
	case strings.HasPrefix(label, "ME"):
		return "#4e79a7"
	case strings.HasPrefix(label, "INT"):
		return "#59a14f"
	case strings.HasPrefix(label, "SME"):
		return "#f28e2b"
	case strings.HasPrefix(label, "R*"):
		return "#e15759"
	case strings.HasPrefix(label, "tau"):
		return "#bab0ac"
	default:
		return "#9c9ede" // transfers
	}
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
