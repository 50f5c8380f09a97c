package fleet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"testing"

	"feves/internal/h264/codec"
	"feves/internal/serve"
)

func TestShardRangesCoverAndAlign(t *testing.T) {
	cases := []struct {
		frames, gop, max int
		want             []ShardRange
	}{
		{12, 4, 3, []ShardRange{{0, 4}, {4, 4}, {8, 4}}},
		{12, 4, 2, []ShardRange{{0, 8}, {8, 4}}},
		{10, 4, 3, []ShardRange{{0, 4}, {4, 4}, {8, 2}}}, // ragged tail stays in the last shard
		{12, 4, 8, []ShardRange{{0, 4}, {4, 4}, {8, 4}}}, // capped at the GOP count
		{12, 0, 3, []ShardRange{{0, 12}}},                // IPPP cannot shard
		{12, 4, 1, []ShardRange{{0, 12}}},
		{3, 4, 4, []ShardRange{{0, 3}}}, // shorter than one GOP
	}
	for _, c := range cases {
		got := shardRanges(c.frames, c.gop, c.max)
		if len(got) != len(c.want) {
			t.Errorf("shardRanges(%d,%d,%d) = %v, want %v", c.frames, c.gop, c.max, got, c.want)
			continue
		}
		covered := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("shardRanges(%d,%d,%d)[%d] = %v, want %v", c.frames, c.gop, c.max, i, got[i], c.want[i])
			}
			if c.gop > 0 && got[i].Start%c.gop != 0 {
				t.Errorf("shard %d starts at %d, not on a GOP boundary", i, got[i].Start)
			}
			if got[i].Start != covered {
				t.Errorf("shard %d starts at %d, gap after %d", i, got[i].Start, covered)
			}
			covered += got[i].Frames
		}
		if covered != c.frames {
			t.Errorf("shards cover %d frames, want %d", covered, c.frames)
		}
	}
	if got := shardRanges(0, 4, 3); got != nil {
		t.Errorf("empty stream sharded to %v", got)
	}
}

func TestAssembleShardsStripsHeadersOnce(t *testing.T) {
	cfg := codec.Config{Width: 64, Height: 64, SearchRange: 16, NumRF: 1, IQP: 27, PQP: 28, IntraPeriod: 4}
	hdr := codec.SequenceHeaderLen(cfg)
	if hdr <= 0 {
		t.Fatalf("sequence header length %d", hdr)
	}
	prefix := bytes.Repeat([]byte{0xAB}, hdr)
	s0 := append(append([]byte{}, prefix...), 1, 2, 3)
	s1 := append(append([]byte{}, prefix...), 4, 5)
	out, err := assembleShards(cfg, [][]byte{s0, s1})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, s0...), 4, 5)
	if !bytes.Equal(out, want) {
		t.Fatalf("assembled %v, want %v", out, want)
	}

	// A diverging header must be rejected, not spliced.
	bad := append([]byte{}, s1...)
	bad[0] ^= 0xFF
	if _, err := assembleShards(cfg, [][]byte{s0, bad}); err == nil {
		t.Fatal("diverging sequence header accepted")
	}
	short := prefix[:hdr-1]
	if _, err := assembleShards(cfg, [][]byte{s0, short}); err == nil {
		t.Fatal("truncated shard accepted")
	}
	if _, err := assembleShards(cfg, nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

// FuzzShardPlan decodes arbitrary bytes as a StreamSpec and as a JobSpec.
// For every spec whose whole form validates, the plan at 0–4 shards must
// tile the frames contiguously, validate shard by shard, number each shard
// from whole.FrameBase+Start on a GOP boundary, and slice the input so the
// pieces concatenate back to it — and nothing may panic.
func FuzzShardPlan(f *testing.F) {
	// fleet_streams' shape — an encode of two GOPs — at the smallest frame
	// size: a large seed leaves the engine minimizing instead of fuzzing.
	clip := base64.StdEncoding.EncodeToString(testYUV(16, 16, 4))
	for _, seed := range []string{
		`{"mode":"encode","width":16,"height":16,"search_area":32,"ref_frames":1,"intra_period":2,"yuv":"` + clip + `"}`,
		`{"mode":"simulate","width":1920,"height":1088,"frames":20,"intra_period":5,"max_shards":3}`,
		`{"mode":"simulate","width":64,"height":64,"frames":12,"intra_period":4,"frame_base":8}`,
		`{"mode":"simulate","width":64,"height":64,"frames":16,"intra_period":8,"frame_base":9223372036854775800}`,
		`{"mode":"encode","width":4294967296,"height":4294967296,"intra_period":4,"yuv":"AQ=="}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp StreamSpec
		if json.Unmarshal(data, &sp) == nil {
			checkShardPlan(t, sp.whole())
		}
		var js serve.JobSpec
		if json.Unmarshal(data, &js) == nil {
			checkShardPlan(t, js)
		}
	})
}

func checkShardPlan(t *testing.T, whole serve.JobSpec) {
	if whole.Validate() != nil {
		return
	}
	for maxShards := 0; maxShards <= 4; maxShards++ {
		where := fmt.Sprintf("%d frames, intra period %d, frame base %d, max shards %d",
			whole.FrameCount(), whole.IntraPeriod, whole.FrameBase, maxShards)
		shards := shardsOf(whole, maxShards)
		next := 0
		var yuv []byte
		for i, sh := range shards {
			if sh.idx != i || sh.rng.Start != next || sh.rng.Frames < 1 {
				t.Fatalf("%s: shard %d covers %+v after frame %d", where, i, sh.rng, next)
			}
			if err := sh.spec.Validate(); err != nil {
				t.Fatalf("%s: shard %d does not validate: %v", where, i, err)
			}
			if sh.spec.FrameBase != whole.FrameBase+sh.rng.Start || sh.spec.FrameCount() != sh.rng.Frames {
				t.Fatalf("%s: shard %d runs %d frames from %d, want %d from %d", where, i,
					sh.spec.FrameCount(), sh.spec.FrameBase, sh.rng.Frames, whole.FrameBase+sh.rng.Start)
			}
			if len(shards) > 1 && sh.rng.Start%whole.IntraPeriod != 0 {
				t.Fatalf("%s: shard %d opens at %d, off the GOP grid", where, i, sh.rng.Start)
			}
			yuv = append(yuv, sh.spec.YUV...)
			next += sh.rng.Frames
		}
		if next != whole.FrameCount() {
			t.Fatalf("%s: shards cover %d frames", where, next)
		}
		if !bytes.Equal(yuv, whole.YUV) {
			t.Fatalf("%s: shard inputs concatenate to %d bytes, not the whole's %d", where, len(yuv), len(whole.YUV))
		}
	}
}
