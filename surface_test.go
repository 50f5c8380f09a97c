package feves_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"feves"
	"feves/internal/h264"
	"feves/internal/h264/codec"
	"feves/internal/platforms"
	"feves/internal/serve"
)

// frameKey is what every surface must agree on per frame.
type frameKey struct {
	Frame int
	Intra bool
	Chain int
	Bits  int
}

func keyOf(r feves.FrameReport) frameKey {
	return frameKey{r.Frame, r.Intra, r.Chain, r.Bits}
}

// offerAll drives the public offer protocol by hand — EncodeYUV, or with
// pairs EncodeYUVPair re-offering an unconsumed second frame — calling
// between(i) before frame i is first offered. It also counts the offers
// that ran two wide.
func offerAll(t *testing.T, frames [][]byte, pairs bool, between func(i int),
	encode func(a, b []byte) ([]feves.FrameReport, error)) (keys []frameKey, paired int) {
	t.Helper()
	for i := 0; i < len(frames); {
		between(i)
		var next []byte
		if pairs && i+1 < len(frames) {
			next = frames[i+1]
		}
		reps, err := encode(frames[i], next)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for _, r := range reps {
			keys = append(keys, keyOf(r))
		}
		if len(reps) == 2 {
			paired++
		}
		i += len(reps)
	}
	return keys, paired
}

// sliceSource yields the frames in order, then io.EOF.
func sliceSource(frames [][]byte) func() ([]byte, error) {
	i := 0
	return func() ([]byte, error) {
		if i == len(frames) {
			return nil, io.EOF
		}
		i++
		return frames[i-1], nil
	}
}

// TestSurfacesBitIdentical runs the same clip through every surface of the
// one session driver — a standalone Encoder (hand-offered and as a
// sequence), a pool session that absorbs a second tenant's arrival and
// departure mid-run, and a serve job — and requires byte-identical
// bitstreams, equal to a bare codec.Encoder, and identical per-frame
// {frame, intra, chain, bits}. The clips put an intra boundary, the end of
// the stream and a scene cut inside an offered pair.
func TestSurfacesBitIdentical(t *testing.T) {
	const w, h = 96, 80
	clips := []struct {
		name        string
		frames      [][]byte
		intraPeriod int
		sceneCut    float64
		cutAt       int
	}{
		{name: "gop5x12", frames: synthYUV(t, w, h, 12, 1), intraPeriod: 5},
		{name: "gop5x11", frames: synthYUV(t, w, h, 11, 1), intraPeriod: 5},
		{name: "cutAt6", frames: append(synthYUV(t, w, h, 6, 1), synthYUV(t, w, h, 6, 977)...),
			sceneCut: 8, cutAt: 6},
	}
	for _, clip := range clips {
		for _, pairs := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/pairs=%v", clip.name, pairs), func(t *testing.T) {
				cfg := feves.Config{Width: w, Height: h, IntraPeriod: clip.intraPeriod,
					SceneCutThreshold: clip.sceneCut, FrameParallel: pairs}
				n := len(clip.frames)

				// Reference: the bare codec, one frame at a time.
				cc := codec.Config{Width: w, Height: h, SearchRange: 16, NumRF: 1, IQP: 27, PQP: 28,
					IntraPeriod: clip.intraPeriod, SceneCutThreshold: clip.sceneCut, Chains: 1}
				if pairs {
					cc.Chains = 2
				}
				ref, err := codec.NewEncoder(cc)
				if err != nil {
					t.Fatal(err)
				}
				type coded struct {
					intra bool
					bits  int
				}
				var want []coded
				for i, yuv := range clip.frames {
					cf := h264.NewFrame(w, h)
					cf.Poc = i
					if err := cf.LoadYUV(yuv); err != nil {
						t.Fatal(err)
					}
					st, err := ref.EncodeFrame(cf)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, coded{st.Intra, st.Bits})
				}
				if clip.sceneCut > 0 && !want[clip.cutAt].intra {
					t.Fatalf("splice at frame %d did not code an IDR", clip.cutAt)
				}

				type outcome struct {
					surface string
					stream  []byte
					keys    []frameKey
				}
				var got []outcome

				enc, err := feves.NewEncoder(cfg, feves.SysHK())
				if err != nil {
					t.Fatal(err)
				}
				keys, paired := offerAll(t, clip.frames, pairs, func(int) {}, enc.EncodeYUVPair)
				if pairs && paired == 0 {
					t.Error("no offer ran two wide — the clip never exercised a pair")
				}
				got = append(got, outcome{"Encoder offers", enc.Bitstream(), keys})

				enc, err = feves.NewEncoder(cfg, feves.SysHK())
				if err != nil {
					t.Fatal(err)
				}
				keys = nil
				err = enc.EncodeSequence(sliceSource(clip.frames), func(r feves.FrameReport) {
					keys = append(keys, keyOf(r))
				})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, outcome{"Encoder sequence", enc.Bitstream(), keys})

				p, err := feves.NewPool(feves.SysHK())
				if err != nil {
					t.Fatal(err)
				}
				sess, err := p.NewEncoderSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var other *feves.Session
				keys, _ = offerAll(t, clip.frames, pairs, func(i int) {
					switch {
					case i >= 3 && i < 8 && other == nil:
						if other, err = p.NewSimulationSession(feves.Config{Width: 1920, Height: 1088}); err != nil {
							t.Fatal(err)
						}
					case i >= 8 && other != nil:
						other.Close()
						other = nil
					}
				}, sess.EncodeYUVPair)
				if sess.Repartitions() < 2 {
					t.Errorf("pool session absorbed %d re-partitions, want the arrival and the departure", sess.Repartitions())
				}
				got = append(got, outcome{"Pool session", sess.Bitstream(), keys})
				sess.Close()

				pl, err := platforms.Lookup("syshk")
				if err != nil {
					t.Fatal(err)
				}
				srv, err := serve.New(serve.Config{Platform: pl})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				job, err := srv.Submit(serve.JobSpec{Mode: serve.ModeEncode, Width: w, Height: h,
					IntraPeriod: clip.intraPeriod, SceneCutThreshold: clip.sceneCut, FrameParallel: pairs,
					YUV: bytes.Join(clip.frames, nil)})
				if err != nil {
					t.Fatal(err)
				}
				if st := job.Wait(); st != serve.StatusDone {
					t.Fatalf("serve job finished %q (%s)", st, job.Status().Error)
				}
				keys = nil
				for _, r := range job.Results() {
					keys = append(keys, frameKey{r.Frame, r.Intra, r.Chain, r.Bits})
				}
				got = append(got, outcome{"serve job", job.Bitstream(), keys})

				for _, o := range got {
					if !bytes.Equal(o.stream, ref.Bitstream()) {
						t.Errorf("%s: bitstream differs from the bare codec (%d vs %d bytes)",
							o.surface, len(o.stream), len(ref.Bitstream()))
					}
					if !reflect.DeepEqual(o.keys, got[0].keys) {
						t.Errorf("%s: per-frame sequence differs from %s:\n%v\n%v",
							o.surface, got[0].surface, o.keys, got[0].keys)
					}
					if len(o.keys) != n {
						t.Fatalf("%s: %d frame reports for %d frames", o.surface, len(o.keys), n)
					}
					for i, k := range o.keys {
						if k.Frame != i || k.Intra != want[i].intra || k.Bits != want[i].bits {
							t.Errorf("%s: frame %d reported %+v, bare codec coded %+v", o.surface, i, k, want[i])
						}
					}
				}
			})
		}
	}
}
