package teleflag

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestFlagsObserver walks the flag → Observer wiring end to end on the
// process flag set: disabled when nothing is requested, file-backed event
// and Perfetto sinks when asked for, and clean failure (with the already
// opened files closed) when a path cannot be created. Register may only
// run once per process, so every scenario shares one Flags value.
func TestFlagsObserver(t *testing.T) {
	f := Register()
	if f.Enabled() {
		t.Fatal("flags report enabled before any was set")
	}
	obs, closeFn, err := f.Observer()
	if obs != nil || err != nil {
		t.Fatalf("disabled observer: got (%v, %v), want (nil, nil)", obs, err)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("noop close: %v", err)
	}
	// A service's sink is always on, flags or not.
	sink, closeFn, err := f.ServiceSink()
	if err != nil || sink.Metrics == nil || sink.Trace == nil || sink.Flight == nil || sink.Events != nil {
		t.Fatalf("flagless service sink: %+v, %v", sink, err)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("noop close: %v", err)
	}

	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	perfetto := filepath.Join(dir, "trace.json")
	set := func(name, value string) {
		t.Helper()
		if err := flag.Set(name, value); err != nil {
			t.Fatalf("set -%s: %v", name, err)
		}
	}
	set("events", events)
	set("perfetto", perfetto)
	set("trace-events", "128")
	set("flight-frames", "16")
	if !f.Enabled() {
		t.Fatal("flags report disabled after -events was set")
	}
	if f.PerfettoPath() != perfetto {
		t.Fatalf("PerfettoPath %q, want %q", f.PerfettoPath(), perfetto)
	}
	if f.TraceEventCap() != 128 || f.flightFrames != 16 {
		t.Fatalf("caps %d/%d, want 128/16", f.TraceEventCap(), f.flightFrames)
	}
	obs, closeFn, err = f.Observer()
	if err != nil {
		t.Fatal(err)
	}
	if obs == nil {
		t.Fatal("enabled flags built no observer")
	}
	if err := closeFn(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, p := range []string{events, perfetto} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("sink file missing: %v", err)
		}
	}

	// With -events alone the service sink is the observer's, and still
	// carries a trace ring for /debug/trace.
	f.perfetto = ""
	sink, closeFn, err = f.ServiceSink()
	if err != nil || sink.Events == nil || sink.Trace == nil || sink.Flight.Depth() != 16 {
		t.Fatalf("service sink with -events: %+v, %v", sink, err)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// -events repeats accumulate (feves-trace's merge input)...
	set("events", filepath.Join(dir, "node1.jsonl"))
	if got := f.EventsPaths(); len(got) != 2 {
		t.Fatalf("EventsPaths after a repeat = %v, want 2 entries", got)
	}
	// ...but writing through Observer only supports one sink.
	if _, _, err := f.ServiceSink(); err == nil {
		t.Fatal("multiple -events files accepted for writing")
	}

	// A path that cannot be created must fail cleanly...
	f.events = nil
	set("events", filepath.Join(dir, "missing", "events.jsonl"))
	if _, _, err := f.Observer(); err == nil {
		t.Fatal("uncreatable -events path accepted")
	}
	// ...including when the failure comes second, after -events opened.
	f.events = nil
	set("events", events)
	set("perfetto", filepath.Join(dir, "missing", "trace.json"))
	if _, _, err := f.Observer(); err == nil {
		t.Fatal("uncreatable -perfetto path accepted")
	}
}
