package codec

import "testing"

// fuzzSeed encodes a short 32×32 sequence under cfg.
func fuzzSeed(f *testing.F, cfg Config) []byte {
	cfg.Width, cfg.Height, cfg.SearchRange, cfg.IQP, cfg.PQP = 32, 32, 4, 27, 28
	enc, err := NewEncoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range movingScene(32, 32, 4, 9) {
		if _, err := enc.EncodeFrame(fr); err != nil {
			f.Fatal(err)
		}
	}
	return enc.Bitstream()
}

// FuzzDecode feeds arbitrary bytes to the decoder. The invariant is "an
// error or frames, never a panic"; the crashers it found are kept under
// testdata/fuzz/FuzzDecode and replayed by plain go test.
func FuzzDecode(f *testing.F) {
	f.Add(fuzzSeed(f, Config{NumRF: 1}))
	f.Add(fuzzSeed(f, Config{NumRF: 1, Entropy: EntropyArith, Slices: 2, Checksum: true}))
	f.Add(fuzzSeed(f, Config{NumRF: 2, Chains: 2}))
	f.Fuzz(func(t *testing.T, stream []byte) {
		dec, err := NewDecoder(stream)
		if err != nil {
			return
		}
		// A header may declare 16384×16384 in a dozen bytes; keep the
		// fuzzer's frames (and their 16-plane sub-frames) small.
		if cfg := dec.Config(); cfg.Width*cfg.Height > 64*64 {
			return
		}
		for n := 0; n < 32; n++ {
			fr, err := dec.DecodeFrame()
			if err != nil {
				return
			}
			if fr == nil {
				t.Fatal("DecodeFrame returned neither a frame nor an error")
			}
		}
	})
}
