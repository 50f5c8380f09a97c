package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"

	"feves/internal/telemetry"
	"feves/internal/trace"
	"feves/internal/vcm"
)

// flightOpts carries the parsed flags of -flight mode.
type flightOpts struct {
	path     string
	bundle   int
	frame    int
	frameSet bool
	width    int
	csv      bool
	jsonOut  bool
	svg      string
	perfetto string
	traceCap int
}

// flightFile decodes both document shapes the recorder produces: a full
// /debug/flight snapshot (frames + incidents + bundles) and a single
// post-mortem Bundle (reason + frames + incidents).
type flightFile struct {
	Reason    string                  `json:"reason"`
	Session   string                  `json:"session"`
	Frame     int                     `json:"frame"`
	Detail    string                  `json:"detail"`
	Frames    []telemetry.FlightEntry `json:"frames"`
	Incidents []telemetry.Incident    `json:"incidents"`
	Bundles   []telemetry.Bundle      `json:"bundles"`
}

// runFlight is -flight mode: it renders the document at o.path to stdout.
func runFlight(o flightOpts) {
	raw, err := os.ReadFile(o.path)
	if err != nil {
		log.Fatal(err)
	}
	if err := renderFlight(os.Stdout, raw, o); err != nil {
		log.Fatalf("%s: %v", o.path, err)
	}
}

// loadFlight decodes a flight-recorder document and validates every
// recorded frame in it — the live ring's and each bundle's. The file is
// whatever the operator handed over, so nothing the renderers index or
// scale by may be taken on trust.
func loadFlight(raw []byte) (flightFile, error) {
	var ff flightFile
	if err := json.Unmarshal(raw, &ff); err != nil {
		return ff, err
	}
	for i := range ff.Frames {
		if err := checkEntry(&ff.Frames[i]); err != nil {
			return ff, err
		}
	}
	for _, b := range ff.Bundles {
		for i := range b.Frames {
			if err := checkEntry(&b.Frames[i]); err != nil {
				return ff, fmt.Errorf("bundle %d: %w", b.ID, err)
			}
		}
	}
	return ff, nil
}

// checkEntry rejects a recorded frame whose times no schedule could have
// produced: every τ finite and non-negative, every span 0 ≤ start ≤ end with
// a finite end.
func checkEntry(e *telemetry.FlightEntry) error {
	for _, p := range []struct {
		name string
		t    float64
	}{{"tau1", e.Tau1}, {"tau2", e.Tau2}, {"tau_tot", e.Tot}} {
		if !(p.t >= 0) || math.IsInf(p.t, 1) {
			return fmt.Errorf("frame %d: %s = %v is not a finite non-negative time", e.Frame, p.name, p.t)
		}
	}
	for i, s := range e.Spans {
		if !(s.Start >= 0 && s.End >= s.Start) || math.IsInf(s.End, 1) {
			return fmt.Errorf("frame %d: span %d (%q on %q) runs %v → %v, want finite 0 ≤ start ≤ end",
				e.Frame, i, s.Label, s.Resource, s.Start, s.End)
		}
	}
	return nil
}

// renderFlight renders a flight-recorder document: picks the window (a bundle
// or the live ring), prints the post-mortem header and incident log, and
// reuses the simulation path's Gantt/CSV/SVG/JSON views on the recorded
// schedule of the selected frame. With -perfetto it additionally replays
// the whole window into a trace timeline, one lane per session.
func renderFlight(out io.Writer, raw []byte, o flightOpts) error {
	ff, err := loadFlight(raw)
	if err != nil {
		return err
	}

	window := telemetry.Bundle{
		Reason: ff.Reason, Session: ff.Session, Frame: ff.Frame,
		Detail: ff.Detail, Frames: ff.Frames, Incidents: ff.Incidents,
	}
	switch {
	case o.bundle >= 0:
		found := false
		for _, b := range ff.Bundles {
			if b.ID == o.bundle {
				window, found = b, true
				break
			}
		}
		if !found {
			return fmt.Errorf("no bundle with id %d (have %s)", o.bundle, bundleIDs(ff.Bundles))
		}
	case ff.Reason == "" && len(ff.Bundles) > 0:
		window = ff.Bundles[len(ff.Bundles)-1]
	}
	if len(window.Frames) == 0 {
		return fmt.Errorf("selected window holds no recorded frames")
	}

	if window.Reason != "" {
		fmt.Fprintf(out, "post-mortem bundle %d: %s\n", window.ID, window.Reason)
		if window.Session != "" {
			fmt.Fprintf(out, "  session:  %s\n", window.Session)
		}
		fmt.Fprintf(out, "  frame:    %d\n", window.Frame)
		if window.Detail != "" {
			fmt.Fprintf(out, "  detail:   %s\n", window.Detail)
		}
		if !window.Captured.IsZero() {
			fmt.Fprintf(out, "  captured: %s\n", window.Captured.Format("2006-01-02 15:04:05 MST"))
		}
	} else {
		fmt.Fprintf(out, "live flight ring: %d frames, %d incidents, %d bundles\n",
			len(window.Frames), len(window.Incidents), len(ff.Bundles))
	}
	if len(window.Incidents) > 0 {
		fmt.Fprintf(out, "\nincidents (oldest first):\n")
		for _, in := range window.Incidents {
			s := in.Session
			if s == "" {
				s = "-"
			}
			fmt.Fprintf(out, "  #%-4d %-18s session=%-12s frame=%-4d dev=%-3d %s\n",
				in.Seq, in.Kind, s, in.Frame, in.Device, in.Detail)
		}
	}

	entry, err := pickEntry(window, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nframe %d", entry.Frame)
	if entry.Session != "" {
		fmt.Fprintf(out, " (session %s)", entry.Session)
	}
	if entry.Attempt > 0 {
		fmt.Fprintf(out, " attempt %d", entry.Attempt)
	}
	if entry.PredTot > 0 {
		fmt.Fprintf(out, ": τtot %.4fs measured vs %.4fs predicted", entry.Tot, entry.PredTot)
	} else {
		fmt.Fprintf(out, ": τtot %.4fs", entry.Tot)
	}
	fmt.Fprintln(out)

	timing := entryTiming(entry)
	if o.svg != "" {
		if err := os.WriteFile(o.svg, []byte(trace.SVG(timing, 1200)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", o.svg)
	}
	if o.perfetto != "" {
		if err := writeWindowPerfetto(o.perfetto, o.traceCap, window.Frames); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d frames)\n", o.perfetto, len(window.Frames))
	}
	switch {
	case o.jsonOut:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(entry)
	case o.csv:
		fmt.Fprint(out, trace.CSV(timing))
	case len(timing.Spans) > 0:
		fmt.Fprintln(out)
		fmt.Fprint(out, trace.Gantt(timing, o.width))
		fmt.Fprintf(out, "\ndistribution: ME=%v INT=%v SME=%v Δm=%v Δl=%v σ=%v σʳ=%v\n",
			entry.M, entry.L, entry.S, entry.DeltaM, entry.DeltaL,
			entry.Sigma, entry.SigmaR)
	default:
		fmt.Fprintln(out, "no spans recorded for this frame (intra or re-characterization frame)")
	}
	return nil
}

// pickEntry selects the frame to render: an explicit -frame, else the
// bundle's blamed frame when it is still in the window, else the newest
// recorded frame.
func pickEntry(window telemetry.Bundle, o flightOpts) (telemetry.FlightEntry, error) {
	want, required := window.Frame, false
	if o.frameSet {
		want, required = o.frame, true
	}
	for i := len(window.Frames) - 1; i >= 0; i-- {
		if window.Frames[i].Frame == want {
			return window.Frames[i], nil
		}
	}
	if required {
		return telemetry.FlightEntry{}, fmt.Errorf("frame %d is not in the recorded window (frames %d..%d)",
			want, window.Frames[0].Frame, window.Frames[len(window.Frames)-1].Frame)
	}
	return window.Frames[len(window.Frames)-1], nil
}

// entryTiming is the vcm.FrameTiming view of a recorded frame, so the
// simulation path's Gantt/CSV/SVG renderers apply unchanged; the recorded
// spans are the renderers' span type already.
func entryTiming(e telemetry.FlightEntry) vcm.FrameTiming {
	return vcm.FrameTiming{
		Frame: e.Frame, Tau1: e.Tau1, Tau2: e.Tau2, Tot: e.Tot,
		RStarDev: e.RStarDev, Chain: e.Chain, PairMakespan: e.PairMakespan,
		Spans: e.Spans,
	}
}

// writeWindowPerfetto writes the recorded window's Perfetto-loadable
// timeline to path.
func writeWindowPerfetto(path string, capEvents int, frames []telemetry.FlightEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = exportWindow(f, capEvents, frames)
	if e := f.Close(); err == nil {
		err = e
	}
	return err
}

// exportWindow replays every recorded frame into a fresh trace writer — one
// process lane per session, frames laid back-to-back per lane — and exports
// the timeline.
func exportWindow(out io.Writer, capEvents int, frames []telemetry.FlightEntry) error {
	w := telemetry.NewTraceWriterCap(capEvents)
	offsets := map[string]float64{}
	for _, e := range frames {
		pid := 0
		if e.Session != "" {
			pid = w.SessionPID(e.Session)
		}
		off := offsets[e.Session]
		w.AddFrame(pid, e.Frame, e.Attempt, off, e.Tau1, e.Tau2, e.Tot, e.Spans)
		adv := e.Tot
		for _, s := range e.Spans {
			if s.End > adv {
				adv = s.End
			}
		}
		offsets[e.Session] = off + adv
	}
	return w.Export(out)
}

// bundleIDs lists the available bundle ids for the -bundle error message.
func bundleIDs(bs []telemetry.Bundle) string {
	if len(bs) == 0 {
		return "none"
	}
	ids := make([]int, len(bs))
	for i, b := range bs {
		ids[i] = b.ID
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}
