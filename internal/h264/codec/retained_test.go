package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"runtime"
	"testing"

	"feves/internal/h264"
	"feves/internal/h264/interp"
	"feves/internal/h264/me"
)

// retainedCase is one clip and configuration whose bitstream was recorded
// (SHA-256) from the encoder as it was before it retained its working set,
// when every frame got zeroed buffers of its own.
type retainedCase struct {
	name    string
	cfg     Config
	frames  int
	seed    int64
	cutAt   int // frames from here on come from an unrelated scene (0: no cut)
	workers int
	sha     string
}

func (c retainedCase) clip() []*h264.Frame {
	frames := movingScene(c.cfg.Width, c.cfg.Height, c.frames, c.seed)
	if c.cutAt > 0 {
		other := movingScene(c.cfg.Width, c.cfg.Height, c.frames, c.seed+1000)
		for i := c.cutAt; i < c.frames; i++ {
			other[i].Poc = i
			frames[i] = other[i]
		}
	}
	return frames
}

var retainedCases = []retainedCase{
	{name: "CIF full search, VLC, 1 RF",
		cfg:    Config{Width: 352, Height: 288, SearchRange: 16, NumRF: 1, IQP: 27, PQP: 28, Checksum: true},
		frames: 5, seed: 3,
		sha: "f76afeb360d157c5137b56f72f1c5668930d8e010e5dca3e82f2965c7127cc64"},
	{name: "720p-shaped (odd row count), diamond, arith, 2 slices",
		cfg: Config{Width: 320, Height: 176, SearchRange: 16, NumRF: 1, IQP: 27, PQP: 28, Checksum: true,
			MEAlgo: me.Diamond, Entropy: EntropyArith, Slices: 2, IntraPeriod: 6},
		frames: 9, seed: 4, workers: 2,
		sha: "f2d958d5da4eb7ecd1f84e4eabd7e417d1b778d5aaa6b6c42e5dbdb3f0d2c649"},
	{name: "NumRF 4 ramp-up",
		cfg:    Config{Width: 96, Height: 80, SearchRange: 8, NumRF: 4, IQP: 27, PQP: 28},
		frames: 9, seed: 5, workers: 2,
		sha: "f866b9bee5f1d365d2c423811ac278914fcae9de1c84c90e3dfdbb0168873593"},
	{name: "two chains, scene cut",
		cfg: Config{Width: 96, Height: 80, SearchRange: 8, NumRF: 2, IQP: 27, PQP: 28, Chains: 2,
			SceneCutThreshold: 8, Entropy: EntropyArith},
		frames: 10, seed: 6, cutAt: 4,
		sha: "29a9b4123fba46fafd494d4080cd34dbb5da7cdc9b5ad6e4add4021023338751"},
	{name: "rate control",
		cfg:    Config{Width: 96, Height: 96, SearchRange: 8, NumRF: 2, IQP: 27, PQP: 28, TargetBitsPerFrame: 9000},
		frames: 12, seed: 61,
		sha: "38ecb9ee0bf8e0970f840eb632c6558453f6c23907a9ccc9c62ba6aeb1d2dd5e"},
	// The IDR seed sits in both chains; with NumRF 1 each chain evicts it
	// with its first push, with NumRF 2 with its second — while the other
	// chain may still be predicting from it.
	{name: "two chains, NumRF 1, IDR every 5",
		cfg:    Config{Width: 96, Height: 80, SearchRange: 8, NumRF: 1, IQP: 27, PQP: 28, Chains: 2, IntraPeriod: 5, Checksum: true},
		frames: 13, seed: 7,
		sha: "bcab92677149f7e7ee19c12bded60c40a6415d287b1471143d9fca072c8b4115"},
	{name: "two chains, NumRF 2, IDR every 5",
		cfg:    Config{Width: 96, Height: 80, SearchRange: 8, NumRF: 2, IQP: 27, PQP: 28, Chains: 2, IntraPeriod: 5, Checksum: true},
		frames: 13, seed: 7, workers: 2,
		sha: "eb9b15dc95f288d3e10847c092c31eef43cab1ea7b3cbf4855c6030986bbe964"},
	// Here neither chain has evicted the seed when the next IDR flushes
	// them: it must be handed back once, not once per chain.
	{name: "two chains, NumRF 3, IDR every 4",
		cfg:    Config{Width: 96, Height: 80, SearchRange: 8, NumRF: 3, IQP: 27, PQP: 28, Chains: 2, IntraPeriod: 4, Checksum: true},
		frames: 13, seed: 8,
		sha: "47c09224e8c2a1feef595e4a3d75414ab23c182207938b057a90279de26f0c1b"},
}

// TestPoisonedReuseReproducesRecordedStreams is the proof that every byte
// of a recycled buffer is written before it is read: with the poison switch
// on, each reused reconstruction, sub-frame, motion field, decision and
// deblocking grid is filled with values no encode produces, and the streams
// must still be the recorded ones — and decode.
func TestPoisonedReuseReproducesRecordedStreams(t *testing.T) {
	for _, c := range retainedCases {
		cfg := c.cfg
		cfg.KernelWorkers = c.workers
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc.poison = true
		for _, f := range c.clip() {
			if _, err := enc.EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		sum := sha256.Sum256(enc.Bitstream())
		if got := hex.EncodeToString(sum[:]); got != c.sha {
			t.Errorf("%s: stream %s, recorded %s", c.name, got, c.sha)
		}
		if n := decodeAll(t, enc.Bitstream()); n != c.frames {
			t.Errorf("%s: decoded %d of %d frames", c.name, n, c.frames)
		}
	}
}

func decodeAll(t *testing.T, stream []byte) int {
	t.Helper()
	dec, err := NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		if _, err := dec.DecodeFrame(); err == io.EOF {
			return n
		} else if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
	}
}

// TestRecycledFrameIsRelabelled: with one reference the third frame is
// reconstructed into the intra frame's buffer, which must not go on saying
// it is intra frame 0.
func TestRecycledFrameIsRelabelled(t *testing.T) {
	cfg := testConfig(64, 48)
	cfg.NumRF = 1
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first *h264.Frame
	for i, f := range movingScene(64, 48, 3, 2) {
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		r := enc.LastRecon()
		if r.Poc != i || r.IsIntra != (i == 0) {
			t.Fatalf("frame %d reconstructed as Poc %d, IsIntra %v", i, r.Poc, r.IsIntra)
		}
		if i == 0 {
			first = r
		}
	}
	if enc.LastRecon() != first {
		t.Fatal("the third frame did not reuse the first frame's buffer: the test no longer tests recycling")
	}
}

// buffers collects every reconstruction and sub-frame the encoder holds
// anywhere: in a chain, in a job or in the free list.
func (e *Encoder) buffers(frames map[*h264.Frame]bool, sfs map[*interp.SubFrame]bool) {
	for c, dpb := range e.refs.dpb {
		for i := 0; i < dpb.Len(); i++ {
			frames[dpb.Ref(i)] = true
		}
		for _, sf := range e.refs.sf[c] {
			if sf != nil {
				sfs[sf] = true
			}
		}
	}
	for i := range e.jobs {
		if sf := e.jobs[i].NewSF; sf != nil {
			sfs[sf] = true
		}
	}
	for _, f := range e.free.frames {
		frames[f] = true
	}
	for _, sf := range e.free.sfs {
		sfs[sf] = true
	}
}

// TestRetainedSetStaysBounded runs two chains through periodic IDRs, scene
// cuts inside R* (the IDR that flushes the sub-frame the same frame's
// CompleteINT installed) and abandoned jobs, and counts every distinct
// buffer the encoder ever held: a buffer that an eviction loses is replaced
// by a new allocation, so the count grows past the bound.
func TestRetainedSetStaysBounded(t *testing.T) {
	for _, numRF := range []int{1, 2, 3} {
		const w, h, n = 64, 48, 40
		cfg := Config{Width: w, Height: h, SearchRange: 8, NumRF: numRF, IQP: 27, PQP: 28,
			Chains: 2, IntraPeriod: 11, SceneCutThreshold: 8}
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := movingScene(w, h, n, 21), movingScene(w, h, n, 2100)
		frames, sfs := map[*h264.Frame]bool{}, map[*interp.SubFrame]bool{}
		cuts := 0
		for i := 0; i < n; i++ {
			f := a[i]
			if i/7%2 == 1 { // the scene changes every seven frames
				f = b[i]
			}
			if i%5 == 3 && !enc.ShouldIntra() {
				enc.BeginFrame(f) // a retried frame: its first job is abandoned
			}
			stats, err := enc.EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Intra && i > 0 && i%cfg.IntraPeriod != 0 {
				cuts++
			}
			enc.buffers(frames, sfs)
		}
		if cuts < 3 {
			t.Fatalf("NumRF %d: only %d scene cuts, the clip no longer exercises them", numRF, cuts)
		}
		// Per chain NumRF references and the one being reconstructed, less
		// the seed the chains share; NumRF sub-frames with the one in the job.
		if max := 2*(numRF+1) - 1; len(frames) > max {
			t.Errorf("NumRF %d: the encoder held %d distinct reconstructions, want ≤ %d", numRF, len(frames), max)
		}
		if max := 2 * numRF; len(sfs) > max {
			t.Errorf("NumRF %d: the encoder held %d distinct sub-frames, want ≤ %d", numRF, len(sfs), max)
		}
	}
}

// TestLastReconValidUntilItsChainMovesOn pins the LastRecon contract: the
// frame stays intact while other chains complete frames and while the next
// frame on its own chain is in flight, up to that frame's R*.
func TestLastReconValidUntilItsChainMovesOn(t *testing.T) {
	const w, h = 64, 48
	cfg := Config{Width: w, Height: h, SearchRange: 8, NumRF: 1, IQP: 27, PQP: 28, Chains: 2}
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc.poison = true
	scene := movingScene(w, h, 6, 9)
	for _, f := range scene[:3] { // I, chain 0, chain 1
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	held := enc.LastRecon() // chain 1's
	want := held.Clone()
	if _, err := enc.EncodeFrame(scene[3]); err != nil { // chain 0 completes a frame
		t.Fatal(err)
	}
	if !held.Equal(want) {
		t.Fatal("a frame completing on the other chain overwrote LastRecon's frame")
	}
	rows := cfg.MBRows()
	job := enc.BeginFrame(scene[4]) // chain 1 again, up to R*
	enc.RunME(job, 0, rows)
	enc.RunINT(job, 0, rows)
	enc.CompleteINT(job)
	enc.RunSME(job, 0, rows)
	if !held.Equal(want) {
		t.Fatal("the next frame on its chain overwrote LastRecon's frame before completing")
	}
	enc.RunRStar(job)
	if enc.LastRecon() == held {
		t.Fatal("LastRecon did not move on")
	}
}

// TestSteadyStateFrameZeroAllocs is the ceiling on what a steady-state
// inter frame may allocate once the working set exists: a handful of small
// objects (pool bookkeeping, sync.Pool refills after a collection), nothing
// that scales with the frame. The stream's own growth is taken out by
// pre-growing the writer.
func TestSteadyStateFrameZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, cfg := range []Config{
		{Width: 320, Height: 176, SearchRange: 16, NumRF: 1, IQP: 27, PQP: 28, Checksum: true,
			MEAlgo: me.Diamond, Entropy: EntropyArith, Slices: 2, KernelWorkers: 2},
		{Width: 176, Height: 144, SearchRange: 8, NumRF: 2, IQP: 27, PQP: 28, Chains: 2,
			TargetBitsPerFrame: 20000},
	} {
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scene := movingScene(cfg.Width, cfg.Height, 6, 17)
		i := 0
		step := func() {
			if _, err := enc.EncodeFrame(scene[i%len(scene)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < 2*len(scene) { // fills every chain and sizes every scratch buffer
			step()
		}
		enc.w.AlignByte()
		enc.w.WriteBytes(make([]byte, 8<<20))
		enc.w.Reset()

		const runs = 20
		objects := testing.AllocsPerRun(runs, step)
		// The kernels' scratch sits in sync.Pools, which refill once per P
		// (and after AllocsPerRun's GOMAXPROCS change): the quietest of a
		// few windows is the steady state.
		perFrame := uint64(math.MaxUint64)
		for win := 0; win < 4; win++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for k := 0; k < runs; k++ {
				step()
			}
			runtime.ReadMemStats(&after)
			perFrame = min(perFrame, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		luma := uint64(cfg.Width * cfg.Height)
		t.Logf("%dx%d: %.0f objects, %d bytes per frame", cfg.Width, cfg.Height, objects, perFrame)
		if objects > 16 {
			t.Errorf("%dx%d: %.0f objects allocated per steady-state frame, want ≤ 16", cfg.Width, cfg.Height, objects)
		}
		if perFrame > luma*2/100 {
			t.Errorf("%dx%d: %d bytes allocated per steady-state frame, want ≤ 2%% of %d luma bytes",
				cfg.Width, cfg.Height, perFrame, luma)
		}
	}
}
