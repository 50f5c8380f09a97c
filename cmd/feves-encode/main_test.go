package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"feves/internal/h264/codec"
	"feves/internal/video"
)

// TestVerifyStreamReportsCorruption feeds -verify's code path a good
// stream, one with a garbled and one with a truncated sequence header, and
// one damaged mid-way: the bad ones must come back as errors naming how
// far decoding got — a panic (the old nil dereference on a header error)
// fails the test.
func TestVerifyStreamReportsCorruption(t *testing.T) {
	const w, h, frames = 64, 64, 4
	enc, err := codec.NewEncoder(codec.Config{Width: w, Height: h, SearchRange: 8,
		NumRF: 1, IQP: 27, PQP: 28, Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	src := video.NewSynthetic(w, h, frames, 3)
	for i := 0; i < frames; i++ {
		if _, err := enc.EncodeFrame(src.FrameAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	good := enc.Bitstream()
	hdr := codec.SequenceHeaderLen(enc.Config())

	damaged := func(at int) []byte {
		b := append([]byte(nil), good...)
		b[at] ^= 0xff
		return b
	}
	cases := []struct {
		name   string
		stream []byte
		want   string // "" = verifies
	}{
		{"good", good, ""},
		{"garbled-header", damaged(0), "corrupt header"},
		{"truncated-header", good[:hdr/2], "corrupt header"},
		{"empty", nil, "corrupt header"},
		{"damaged-midway", damaged(hdr + (len(good)-hdr)/2), "corrupt after "},
		{"truncated-midway", good[:hdr+(len(good)-hdr)/2], "corrupt after "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.fvs")
			if err := os.WriteFile(path, tc.stream, 0o644); err != nil {
				t.Fatal(err)
			}
			err := verifyStream(path, io.Discard)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("good stream rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), path+": ") {
				t.Fatalf("error does not name the file: %v", err)
			}
		})
	}
	if err := verifyStream(filepath.Join(t.TempDir(), "missing.fvs"), io.Discard); err == nil {
		t.Fatal("missing file verified")
	}
}
