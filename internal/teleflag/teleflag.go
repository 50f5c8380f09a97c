// Package teleflag wires the standard observability flags shared by every
// FEVES command-line tool (-metrics-addr, -events, -perfetto) into a
// feves.Observer, so the CLIs stay one-liner thin and agree on flag names
// and semantics.
package teleflag

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"feves"
	"feves/internal/telemetry"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	metricsAddr  string
	events       stringList
	perfetto     string
	traceEvents  int
	flightFrames int
}

// stringList is a repeatable string flag: each occurrence appends.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Register declares -metrics-addr, -events, -perfetto, -trace-events and
// -flight-frames on the default flag set. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.metricsAddr, "metrics-addr", "",
		"serve Prometheus metrics over HTTP at this address, e.g. :9090 ('' = off)")
	flag.Var(&f.events, "events",
		"write the JSONL telemetry event stream (frame timings, balancer audits) to this file ('' = off); "+
			"feves-trace instead reads it, and accepts the flag repeated — one file per fleet node — to merge")
	flag.StringVar(&f.perfetto, "perfetto", "",
		"write the whole run's schedule as Chrome trace-event JSON (Perfetto-loadable) to this file ('' = off)")
	flag.IntVar(&f.traceEvents, "trace-events", 0,
		"trace ring capacity in events; the oldest are overwritten beyond it and counted in feves_trace_events_dropped_total (0 = 65536)")
	flag.IntVar(&f.flightFrames, "flight-frames", 0,
		"flight recorder depth: how many recent frames a post-mortem bundle captures (0 = 64)")
	return f
}

// PerfettoPath returns the -perfetto flag value ('' when unset), for tools
// that render trace output themselves instead of going through Observer.
func (f *Flags) PerfettoPath() string { return f.perfetto }

// EventsPaths returns every -events occurrence in flag order, for tools
// (feves-trace) that read event streams instead of writing them.
func (f *Flags) EventsPaths() []string { return f.events }

// TraceEventCap returns the -trace-events flag value (0 = default cap).
func (f *Flags) TraceEventCap() int { return f.traceEvents }

// Enabled reports whether any observability flag was set.
func (f *Flags) Enabled() bool {
	return f.metricsAddr != "" || len(f.events) > 0 || f.perfetto != ""
}

// Observer builds the Observer the flags describe, or nil when none was
// requested. The returned close function flushes the Perfetto trace, stops
// the metrics endpoint and closes the opened files; call it once at exit.
func (f *Flags) Observer() (*feves.Observer, func() error, error) {
	noop := func() error { return nil }
	if !f.Enabled() {
		return nil, noop, nil
	}
	var oc feves.ObserverConfig
	var files []*os.File
	oc.MetricsAddr = f.metricsAddr
	oc.TraceEventCap = f.traceEvents
	oc.FlightFrames = f.flightFrames
	if len(f.events) > 1 {
		return nil, noop, fmt.Errorf(
			"writing supports a single -events file (%d given); merging several is feves-trace's reading mode", len(f.events))
	}
	if len(f.events) == 1 {
		ef, err := os.Create(f.events[0])
		if err != nil {
			return nil, noop, err
		}
		files = append(files, ef)
		oc.Events = ef
	}
	if f.perfetto != "" {
		pf, err := os.Create(f.perfetto)
		if err != nil {
			closeAll(files)
			return nil, noop, err
		}
		files = append(files, pf)
		oc.Perfetto = pf
	}
	obs, err := feves.NewObserver(oc)
	if err != nil {
		closeAll(files)
		return nil, noop, err
	}
	if addr := obs.MetricsAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "telemetry: serving metrics at http://%s/metrics\n", addr)
	}
	closeFn := func() error {
		err := obs.Close()
		if e := closeAll(files); err == nil {
			err = e
		}
		return err
	}
	return obs, closeFn, nil
}

// ServiceSink builds the sink of a long-running service (feves-serve,
// feves-fleet). It always carries a metrics registry, a bounded trace ring
// and a flight recorder, so /metrics, /debug/trace and /debug/flight work
// with no flag set; when observability flags were given, the Observer's
// sink adds the event/trace file outputs (and a second scrape endpoint).
// Call the returned close function once at exit.
func (f *Flags) ServiceSink() (*telemetry.Telemetry, func() error, error) {
	obs, closeFn, err := f.Observer()
	if err != nil {
		return nil, closeFn, err
	}
	if obs == nil {
		return &telemetry.Telemetry{
			Metrics: telemetry.NewRegistry(),
			Trace:   telemetry.NewTraceWriterCap(f.traceEvents),
			Flight:  telemetry.NewFlightRecorder(f.flightFrames),
		}, closeFn, nil
	}
	tel := obs.Sink()
	if tel.Trace == nil {
		// Keep /debug/trace live even when no -perfetto file was asked
		// for; the ring is bounded either way.
		tel.Trace = telemetry.NewTraceWriterCap(f.traceEvents)
	}
	return tel, closeFn, nil
}

func closeAll(files []*os.File) error {
	var err error
	for _, f := range files {
		if e := f.Close(); err == nil {
			err = e
		}
	}
	return err
}
