package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"feves"
	"feves/internal/h264/codec"
	"feves/internal/h264/me"
	"feves/internal/video"
)

// instance is one set-up workload: generated inputs, the constructed
// system under test, and one discarded warm-up op behind it.
type instance interface {
	// measure runs the timed window with tracing off.
	measure(window time.Duration) measurement
	// verify is the output oracle; it runs outside every timed window and
	// returns the number of wrong outputs and a digest of the output.
	verify() (wrong int, digest string)
	// layers runs the traced pass and reports the per-layer metrics.
	layers(window time.Duration, tr *tracer, m metricSet) error
	close()
}

// measurement is what one timed window observed.
type measurement struct {
	opMs      []float64 // wall time per op
	frames    int       // frames completed by succeeded ops
	attempted int       // ops attempted
	failed    int       // ops that errored or were refused
	wall      time.Duration
	allocated uint64 // bytes allocated during the window
}

// workload is one named traffic mix of BENCHMARK.json.
type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

// workloads lists the five workloads at the sizes of record.
func workloads() []workload {
	return []workload{
		{"encode_cif_fs", func(seed uint64) (instance, error) { return setupEncode(encodeCIF, seed) }},
		{"encode_720p_lowme", func(seed uint64) (instance, error) { return setupEncode(encode720p, seed) }},
		{"simulate_1080p", func(seed uint64) (instance, error) { return setupSimulate(simulate1080p, seed) }},
		{"serve_jobs", func(seed uint64) (instance, error) { return setupServe(serveJobs, seed) }},
		{"fleet_streams", func(seed uint64) (instance, error) { return setupFleet(fleetStreams, seed) }},
	}
}

// window times fn between two heap readings. The collector runs first so
// every window starts from the same heap state.
func window(fn func()) (wall time.Duration, allocated uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// clip renders n packed I420 frames of the seeded synthetic scene.
func clip(w, h, n int, seed uint64) [][]byte {
	src := video.NewSynthetic(w, h, n, seed)
	out := make([][]byte, n)
	for i := range out {
		out[i] = src.FrameAt(i).PackedYUV()
	}
	return out
}

func concat(frames [][]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

// codecConfig mirrors feves.Config's (unexported) mapping onto the bare
// codec, so the benchmark can drive codec.Encoder with the parameters the
// public encoder uses.
func codecConfig(c feves.Config) codec.Config {
	cc := codec.Config{
		Width: c.Width, Height: c.Height,
		SearchRange: c.SearchArea / 2, NumRF: c.RefFrames,
		IQP: c.IQP, PQP: c.PQP,
		IntraPeriod: c.IntraPeriod, Checksum: c.Checksum, Slices: c.Slices,
		Chains: 1,
	}
	if cc.SearchRange == 0 {
		cc.SearchRange = 16
	}
	if cc.NumRF == 0 {
		cc.NumRF = 1
	}
	if cc.IQP == 0 {
		cc.IQP = 27
	}
	if cc.PQP == 0 {
		cc.PQP = 28
	}
	if c.ArithmeticCoding {
		cc.Entropy = codec.EntropyArith
	}
	if c.FastME == "diamond" {
		cc.MEAlgo = me.Diamond
	}
	if c.FrameParallel {
		cc.Chains = 2
	}
	return cc
}

func publicPlatform(name string) *feves.Platform {
	switch name {
	case "syshk":
		return feves.SysHK()
	case "sysnff":
		return feves.SysNFF()
	case "sysnf":
		return feves.SysNF()
	case "sysnfk":
		return feves.SysNFK()
	}
	panic("benchmark: unknown platform " + name)
}

// digest is the SHA-256 of an output, in hex.
func digest(out []byte) string {
	sum := sha256.Sum256(out)
	return hex.EncodeToString(sum[:])
}

// digestSet hashes a set of named outputs independent of the order the
// ops completed in.
func digestSet(byName map[string][]byte) string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s:%d:", n, len(byName[n]))
		h.Write(byName[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
