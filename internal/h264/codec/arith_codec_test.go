package codec

import (
	"io"
	"testing"

	"feves/internal/h264"
)

func arithConfig(w, h int) Config {
	c := testConfig(w, h)
	c.Entropy = EntropyArith
	return c
}

func TestArithEncodeDecodeRoundTrip(t *testing.T) {
	const w, h, n = 64, 48, 6
	frames := movingScene(w, h, n, 21)
	enc, err := NewEncoder(arithConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	recons := make([]*h264.Frame, 0, n)
	for _, f := range frames {
		stats, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Bits <= 0 {
			t.Fatal("no bits written")
		}
		recons = append(recons, enc.LastRecon().Clone())
	}
	dec, err := NewDecoder(enc.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config().Entropy != EntropyArith {
		t.Fatal("entropy mode not carried in the header")
	}
	for i := 0; i < n; i++ {
		df, err := dec.DecodeFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !df.Equal(recons[i]) {
			t.Fatalf("frame %d: arithmetic-mode decode differs from reconstruction", i)
		}
	}
	if _, err := dec.DecodeFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestArithReconstructionMatchesVLC(t *testing.T) {
	// The entropy backend must not change the reconstruction at all: both
	// modes quantize identically, so the decoded pixels are bit-equal.
	const w, h, n = 64, 48, 4
	frames := movingScene(w, h, n, 22)
	encV, _ := NewEncoder(testConfig(w, h))
	encA, _ := NewEncoder(arithConfig(w, h))
	for _, f := range frames {
		if _, err := encV.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if _, err := encA.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if !encV.LastRecon().Equal(encA.LastRecon()) {
			t.Fatal("entropy backend changed the reconstruction")
		}
	}
}

func TestArithSmallerThanVLC(t *testing.T) {
	// The extension's payoff: adaptive arithmetic coding compresses the
	// same residual data into fewer bits than the static VLC.
	const w, h, n = 96, 96, 6
	frames := movingScene(w, h, n, 23)
	bits := func(cfg Config) int {
		enc, _ := NewEncoder(cfg)
		for _, f := range frames {
			if _, err := enc.EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return enc.BitsWritten()
	}
	vlc, arith := bits(testConfig(w, h)), bits(arithConfig(w, h))
	if arith >= vlc {
		t.Fatalf("arithmetic stream (%d bits) should be smaller than VLC (%d bits)", arith, vlc)
	}
	t.Logf("VLC %d bits, arithmetic %d bits (%.1f%% saved)", vlc, arith,
		100*(1-float64(arith)/float64(vlc)))
}

func TestArithCollaborativeBitExactness(t *testing.T) {
	// Row-sliced collaborative encoding must stay bit-exact under the
	// arithmetic backend too (R* runs sequentially on one device, so the
	// adaptive contexts see the same data in the same order).
	const w, h, n = 64, 64, 4
	frames := movingScene(w, h, n, 24)
	ref, _ := NewEncoder(arithConfig(w, h))
	for _, f := range frames {
		if _, err := ref.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	collab, _ := NewEncoder(arithConfig(w, h))
	if _, err := collab.EncodeIntraFrame(frames[0]); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames[1:] {
		job := collab.BeginFrame(f)
		collab.RunME(job, 2, 4)
		collab.RunME(job, 0, 2)
		collab.RunINT(job, 1, 4)
		collab.RunINT(job, 0, 1)
		collab.CompleteINT(job)
		collab.RunSME(job, 3, 4)
		collab.RunSME(job, 0, 3)
		collab.RunRStar(job)
	}
	a, b := ref.Bitstream(), collab.Bitstream()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at byte %d", i)
		}
	}
}

func TestArithTruncatedStreamFails(t *testing.T) {
	const w, h = 48, 48
	frames := movingScene(w, h, 2, 25)
	enc, _ := NewEncoder(arithConfig(w, h))
	for _, f := range frames {
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	stream := enc.Bitstream()
	dec, err := NewDecoder(stream[:len(stream)*2/3])
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < 3; i++ {
		if _, err := dec.DecodeFrame(); err == io.EOF {
			break
		} else if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("truncated arithmetic stream decoded without error")
	}
}

func TestConfigRejectsUnknownEntropy(t *testing.T) {
	c := testConfig(48, 48)
	c.Entropy = EntropyMode(7)
	if c.Validate() == nil {
		t.Fatal("unknown entropy mode accepted")
	}
	if EntropyVLC.String() != "vlc" || EntropyArith.String() != "arith" {
		t.Fatal("entropy mode labels wrong")
	}
}

func TestIntraPeriodIDR(t *testing.T) {
	const w, h, n, period = 48, 48, 9, 4
	frames := movingScene(w, h, n, 26)
	cfg := testConfig(w, h)
	cfg.IntraPeriod = period
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []bool
	var recons []*h264.Frame
	for _, f := range frames {
		stats, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, stats.Intra)
		recons = append(recons, enc.LastRecon().Clone())
	}
	for i, intra := range kinds {
		want := i%period == 0
		if intra != want {
			t.Fatalf("frame %d intra=%v, want %v (period %d)", i, intra, want, period)
		}
	}
	// IDR flushes the DPB: right after a refresh only one reference exists.
	if enc.DPBLen() != min(n-1-(n-1)/period*period+1, cfg.NumRF) && enc.DPBLen() > cfg.NumRF {
		t.Fatalf("DPB length %d inconsistent", enc.DPBLen())
	}
	// The stream decodes bit-exactly across IDR boundaries.
	dec, err := NewDecoder(enc.Bitstream())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		df, err := dec.DecodeFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !df.Equal(recons[i]) {
			t.Fatalf("frame %d mismatch across IDR boundary", i)
		}
	}
}
