package codec

import (
	"testing"

	"feves/internal/h264"
	"feves/internal/h264/interp"
)

// TestRefChains drives the reference state through IDR → inter frames → IDR
// the way both Encoder and Decoder do and pins what they rely on: an IDR
// seeds every chain with the one frame, inter frames alternate chains, each
// chain ramps to NumRF and then evicts its oldest, at every prediction
// sfs[i] is the sub-frame of refs[i] with nothing beyond the references —
// and what the encoder's recycling relies on: every frame and sub-frame
// handed in is handed back exactly once, and not while a chain holds it
// (the IDR seed sits in every chain until the last one evicts it).
func TestRefChains(t *testing.T) {
	for _, tc := range []struct{ chains, numRF, inter int }{
		{1, 1, 3}, {1, 3, 6}, {2, 1, 4}, {2, 1, 1}, {2, 2, 1}, {2, 2, 7}, {2, 4, 3}, {2, 4, 12},
	} {
		rc := newRefChains(tc.chains, tc.numRF)
		// Sub-frames are per chain: each chain interpolates the shared seed
		// for itself.
		type key struct {
			chain int
			f     *h264.Frame
		}
		sfOf := map[key]*interp.SubFrame{}
		var free freeList
		in, back := 0, map[any]bool{} // buffers handed in; handed back
		want := make([][]*h264.Frame, tc.chains)
		checkFree := func(when string) {
			t.Helper()
			for _, f := range free.frames {
				if back[f] {
					t.Fatalf("%+v: %s: a frame was released twice", tc, when)
				}
				back[f] = true
				for c := range want {
					for _, held := range want[c] {
						if held == f {
							t.Fatalf("%+v: %s: released a frame chain %d still references", tc, when, c)
						}
					}
				}
			}
			for _, sf := range free.sfs {
				if back[sf] {
					t.Fatalf("%+v: %s: a sub-frame was released twice", tc, when)
				}
				back[sf] = true
			}
			free = freeList{}
		}
		for round := 0; round < 3; round++ {
			seed := h264.NewFrame(16, 16)
			in++
			for c := range want { // each chain's references, newest first
				want[c] = []*h264.Frame{seed}
			}
			rc.idr(seed, &free)
			checkFree("idr")
			if round == 2 {
				break // the flush of round 1 is what this round checks
			}
			for i := 0; i < tc.inter; i++ {
				c := rc.next()
				if c != i%tc.chains {
					t.Fatalf("%+v: inter %d on chain %d, want %d", tc, i, c, i%tc.chains)
				}
				sf := &interp.SubFrame{}
				in++
				sfOf[key{c, want[c][0]}] = sf
				rc.installSF(c, sf)
				refs, sfs := rc.lists(c, nil)
				if len(refs) != len(want[c]) || len(sfs) != tc.numRF {
					t.Fatalf("%+v: inter %d has %d refs and %d SF slots, want %d and %d",
						tc, i, len(refs), len(sfs), len(want[c]), tc.numRF)
				}
				for k, s := range sfs {
					switch {
					case k >= len(refs) && s != nil:
						t.Fatalf("%+v: inter %d: sub-frame %d beyond the %d references", tc, i, k, len(refs))
					case k < len(refs) && (refs[k] != want[c][k] || s != sfOf[key{c, refs[k]}]):
						t.Fatalf("%+v: inter %d: reference %d or its sub-frame is not the expected one", tc, i, k)
					}
				}
				recon := h264.NewFrame(16, 16)
				in++
				want[c] = append([]*h264.Frame{recon}, want[c]...)
				if len(want[c]) > tc.numRF {
					want[c] = want[c][:tc.numRF]
				}
				free.put(rc.push(c, recon))
				checkFree("push")
			}
		}
		if held := 1; len(back) != in-held { // all but the last seed
			t.Fatalf("%+v: %d of %d buffers came back, want %d", tc, len(back), in, in-held)
		}
	}
}

// TestTwoChainRoundTrip encodes a sequence with two reference chains on the
// serial path and checks the decoder reproduces every reconstruction
// bit-exactly, including across an IDR refresh that reseeds both chains.
func TestTwoChainRoundTrip(t *testing.T) {
	const w, h, n = 64, 48, 9
	frames := movingScene(w, h, n, 2)
	cfg := testConfig(w, h)
	cfg.Chains = 2
	cfg.IntraPeriod = 5
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recons := make([]*h264.Frame, n)
	for i, f := range frames {
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		recons[i] = enc.LastRecon().Clone()
	}

	dec, err := NewDecoder(enc.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Config().Chains; got != 2 {
		t.Fatalf("decoded chain count %d, want 2", got)
	}
	for i := 0; i < n; i++ {
		df, err := dec.DecodeFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !df.Equal(recons[i]) {
			t.Fatalf("frame %d: decoder output differs from encoder reconstruction", i)
		}
	}
}

// TestChainAlternation checks the serial path's round-robin chain
// assignment: with two chains, consecutive inter frames land on alternating
// chains and each chain's DPB only grows on that chain's frames.
func TestChainAlternation(t *testing.T) {
	const w, h, n = 64, 48, 6
	frames := movingScene(w, h, n, 3)
	cfg := testConfig(w, h)
	cfg.Chains = 2
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.EncodeFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	// The intra seed lands on both chains.
	if enc.DPBLenOn(0) != 1 || enc.DPBLenOn(1) != 1 {
		t.Fatalf("after intra: chain lens %d,%d", enc.DPBLenOn(0), enc.DPBLenOn(1))
	}
	for i := 1; i < n; i++ {
		wantChain := (i - 1) % 2
		job := enc.BeginFrame(frames[i])
		if job.Chain != wantChain {
			t.Fatalf("inter %d assigned chain %d, want %d", i, job.Chain, wantChain)
		}
		rows := enc.Config().MBRows()
		enc.RunME(job, 0, rows)
		enc.RunINT(job, 0, rows)
		enc.CompleteINT(job)
		enc.RunSME(job, 0, rows)
		enc.RunRStar(job)
	}
	// NumRF=2: each chain holds the seed plus its own frames, capped at 2.
	if enc.DPBLenOn(0) != 2 || enc.DPBLenOn(1) != 2 {
		t.Fatalf("final chain lens %d,%d", enc.DPBLenOn(0), enc.DPBLenOn(1))
	}
}

// TestPipelinedChainsMatchSerial runs two inter frames through the module
// API with both jobs in flight at once (the frame-parallel order: ME/INT of
// both before either completes) and checks the bitstream is byte-identical
// to the fully serial two-chain encode. The chains make the frames
// data-independent, so only R* — which appends to the shared bitstream —
// must retain display order.
func TestPipelinedChainsMatchSerial(t *testing.T) {
	const w, h, n = 64, 48, 7
	frames := movingScene(w, h, n, 4)
	cfg := testConfig(w, h)
	cfg.Chains = 2

	serial, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if _, err := serial.EncodeFrame(f); err != nil {
			t.Fatalf("serial frame %d: %v", i, err)
		}
	}

	pipe, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.EncodeIntraFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	rows := cfg.MBRows()
	runHalf := func(job *FrameJob) {
		pipe.RunME(job, 0, rows)
		pipe.RunINT(job, 0, rows)
		pipe.CompleteINT(job)
		pipe.RunSME(job, 0, rows)
	}
	for i := 1; i < n; i += 2 {
		jobA := pipe.BeginFrameOn(frames[i], 0)
		var jobB *FrameJob
		if i+1 < n {
			jobB = pipe.BeginFrameOn(frames[i+1], 1)
		}
		// Both frames' pre-R* modules run while neither has completed.
		runHalf(jobA)
		if jobB != nil {
			runHalf(jobB)
		}
		pipe.RunRStar(jobA)
		if jobB != nil {
			pipe.RunRStar(jobB)
		}
	}

	a, b := serial.Bitstream(), pipe.Bitstream()
	if len(a) != len(b) {
		t.Fatalf("bitstream lengths differ: serial %d, pipelined %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bitstreams differ at byte %d", i)
		}
	}
}
