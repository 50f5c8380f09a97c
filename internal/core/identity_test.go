package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"feves/internal/device"
	"feves/internal/platforms"
)

// updateIdentity rewrites testdata/schedule_identity.golden:
//
//	go test ./internal/core -run ScheduleIdentity -update
//
// The file was recorded at commit 4f867d4, the last one with separate
// serial and pair schedule builders (this test copied into a checkout of
// it and run with -update; it needs only New, EncodeNext and EncodePair),
// so it pins the merged builder to the schedules both of its predecessors
// produced. Regenerate only for a change that is meant to alter schedules.
var updateIdentity = flag.Bool("update", false, "rewrite the schedule-identity golden file")

// identityScenario is one timing-only session whose every frame is hashed.
type identityScenario struct {
	name   string
	opts   func(t *testing.T) Options
	paired bool // drive through EncodePair instead of EncodeNext
}

func lookupPlatform(t *testing.T, name string) *device.Platform {
	t.Helper()
	pl, err := platforms.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// withDeath arms failover on opts and kills device dev at inter-frame at.
func withDeath(t *testing.T, opts Options, dev string, at int) Options {
	t.Helper()
	fp, err := device.ParseFaults(fmt.Sprintf("die:%s@%d", dev, at), opts.Platform)
	if err != nil {
		t.Fatal(err)
	}
	opts.Platform.Faults = fp
	opts.DeadlineSlack = 3
	opts.Codec.IntraPeriod = 9 // intra and pair boundaries are crossed mid-run
	return opts
}

var identityScenarios = []identityScenario{
	{name: "syshk_sa32_1rf_serial", opts: func(t *testing.T) Options {
		return timingOpts(device.SysHK(), 32, 1)
	}},
	{name: "sysnff_sa64_4rf_serial", opts: func(t *testing.T) Options {
		return timingOpts(device.SysNFF(), 64, 4)
	}},
	{name: "cpu_h_cooperative_rstar", opts: func(t *testing.T) Options {
		return timingOpts(device.CPUOnly("CPU_H", device.CPUHaswellCore(), 4), 32, 1)
	}},
	{name: "sysnfk_2rf_fp_checked", paired: true, opts: func(t *testing.T) Options {
		opts := timingOpts(lookupPlatform(t, "sysnfk"), 32, 2)
		opts.Codec.Chains = 2
		opts.FrameParallel = true
		opts.CheckSchedules = true
		return opts
	}},
	{name: "sysnff_serial_die_gpu", opts: func(t *testing.T) Options {
		return withDeath(t, timingOpts(device.SysNFF(), 64, 1), "0", 14)
	}},
	{name: "sysnfk_fp_die_gpu", paired: true, opts: func(t *testing.T) Options {
		opts := timingOpts(lookupPlatform(t, "sysnfk"), 64, 2)
		opts.Codec.Chains = 2
		opts.FrameParallel = true
		return withDeath(t, opts, "0", 14)
	}},
}

// hashResult folds everything the schedule builder and the frame loop
// decide about one frame into h, float bits exact.
func hashResult(h *bytes.Buffer, r Result) {
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	putInts := func(s []int) {
		put(uint64(len(s)))
		for _, v := range s {
			put(uint64(int64(v)))
		}
	}
	put(uint64(r.FrameIndex))
	put(uint64(r.Attempt))
	if r.Intra {
		put(1)
		return
	}
	ft := r.Timing
	put(uint64(ft.Frame))
	put(uint64(ft.Chain))
	put(uint64(ft.RStarDev))
	putF(ft.Tau1)
	putF(ft.Tau2)
	putF(ft.Tot)
	putF(ft.PairMakespan)
	for _, v := range ft.ModuleTime {
		putF(v)
	}
	d := r.Distribution
	for _, s := range [][]int{d.M, d.L, d.S, d.Sigma, d.SigmaR, d.DeltaM, d.DeltaL} {
		putInts(s)
	}
	put(uint64(d.RStarDev))
	putF(d.PredTau1)
	putF(d.PredTau2)
	putF(d.PredTot)
	put(uint64(len(ft.Spans)))
	for _, s := range ft.Spans {
		h.WriteString(s.Resource)
		h.WriteByte(0)
		h.WriteString(s.Label)
		h.WriteByte(0)
		putF(s.Start)
		putF(s.End)
	}
}

// runIdentity drives 40 timing-only frames and returns the session digest
// plus a short human-readable trailer (so a mismatch says roughly where).
func runIdentity(t *testing.T, sc identityScenario) string {
	t.Helper()
	fw, err := New(sc.opts(t))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 40
	var buf bytes.Buffer
	pairs, retried := 0, 0
	note := func(r Result) {
		hashResult(&buf, r)
		if r.Attempt > 0 {
			retried++
		}
	}
	for fw.FramesProcessed() < frames {
		if !sc.paired {
			r, err := fw.EncodeNext(nil)
			if err != nil {
				t.Fatalf("frame %d: %v", fw.FramesProcessed(), err)
			}
			note(r)
			continue
		}
		ra, rb, paired, err := fw.EncodePair(nil, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", fw.FramesProcessed(), err)
		}
		note(ra)
		if paired {
			note(rb)
			pairs++
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return fmt.Sprintf("%x frames=%d pairs=%d retried=%d retries=%d",
		sum, fw.FramesProcessed(), pairs, retried, fw.FrameRetries())
}

// TestScheduleIdentity replays six timing-only sessions — serial on two
// platforms, the cooperative CPU-only R* branch, checked frame-parallel,
// and a device death with failover armed on either loop shape — and
// compares every frame's span list, sync points, distribution vectors and
// attempt index against digests recorded before the two schedule builders
// were merged into one.
func TestScheduleIdentity(t *testing.T) {
	var got bytes.Buffer
	for _, sc := range identityScenarios {
		fmt.Fprintf(&got, "%s %s\n", sc.name, runIdentity(t, sc))
	}
	path := filepath.Join("testdata", "schedule_identity.golden")
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("schedules drifted from the golden file.\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
