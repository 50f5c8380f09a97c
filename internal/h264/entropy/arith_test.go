package entropy

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestArithBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]uint32, 5000)
	for i := range bits {
		// Skewed source: mostly zeros, so the context adapts.
		if rng.Intn(10) == 0 {
			bits[i] = 1
		}
	}
	e := NewArithEncoder()
	ctx := NewContext()
	for _, b := range bits {
		e.EncodeBit(&ctx, b)
	}
	data := e.Finish()
	d := NewArithDecoder(data)
	dctx := NewContext()
	for i, want := range bits {
		if got := d.DecodeBit(&dctx); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
	// Adaptive coding of a 10%-ones source must beat 1 bit/symbol clearly.
	if len(data)*8 > len(bits)*3/4 {
		t.Fatalf("adaptive coder produced %d bits for %d skewed symbols", len(data)*8, len(bits))
	}
}

func TestArithBypassRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint32, 300)
	for i := range vals {
		vals[i] = rng.Uint32() & 0xFFFF
	}
	e := NewArithEncoder()
	for _, v := range vals {
		e.EncodeBypassBits(v, 16)
	}
	d := NewArithDecoder(e.Finish())
	for i, want := range vals {
		if got := d.DecodeBypassBits(16); got != want {
			t.Fatalf("value %d: got %x want %x", i, got, want)
		}
	}
}

func TestArithMixedContextsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type sym struct {
		ctx int
		bit uint32
	}
	var syms []sym
	for i := 0; i < 4000; i++ {
		c := rng.Intn(3)
		var b uint32
		// Each context has a different bias.
		if rng.Intn(c+2) == 0 {
			b = 1
		}
		syms = append(syms, sym{c, b})
	}
	e := NewArithEncoder()
	ectx := [3]Context{NewContext(), NewContext(), NewContext()}
	for _, s := range syms {
		e.EncodeBit(&ectx[s.ctx], s.bit)
	}
	d := NewArithDecoder(e.Finish())
	dctx := [3]Context{NewContext(), NewContext(), NewContext()}
	for i, s := range syms {
		if got := d.DecodeBit(&dctx[s.ctx]); got != s.bit {
			t.Fatalf("symbol %d mismatch", i)
		}
	}
}

func randomBlocks(n int, density, amp int, seed int64) [][16]int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][16]int32, n)
	for i := range out {
		nz := rng.Intn(density + 1)
		for k := 0; k < nz; k++ {
			// Low-frequency positions more likely, small levels common —
			// the statistics of quantized prediction residuals.
			pos := ZigZag4x4[rng.Intn(8)+rng.Intn(9)]
			level := int32(1 + rng.Intn(amp))
			if rng.Intn(2) == 0 {
				level = -level
			}
			out[i][pos] = level
		}
	}
	return out
}

func TestArithBlockRoundTrip(t *testing.T) {
	blocks := randomBlocks(500, 8, 40, 4)
	e := NewArithEncoder()
	erc := NewResidualContexts()
	for i := range blocks {
		erc.EncodeBlock4x4(e, &blocks[i])
	}
	d := NewArithDecoder(e.Finish())
	drc := NewResidualContexts()
	for i := range blocks {
		var out [16]int32
		if !drc.DecodeBlock4x4(d, &out) {
			t.Fatalf("block %d: corrupt syntax", i)
		}
		if out != blocks[i] {
			t.Fatalf("block %d mismatch:\n in  %v\n out %v", i, blocks[i], out)
		}
	}
}

func TestArithBlockExtremeLevels(t *testing.T) {
	// Levels past the unary prefix exercise the Exp-Golomb escape.
	var blk [16]int32
	blk[0], blk[5], blk[15] = 2047, -512, 9
	e := NewArithEncoder()
	erc := NewResidualContexts()
	erc.EncodeBlock4x4(e, &blk)
	d := NewArithDecoder(e.Finish())
	drc := NewResidualContexts()
	var out [16]int32
	if !drc.DecodeBlock4x4(d, &out) || out != blk {
		t.Fatalf("extreme levels: got %v", out)
	}
}

func TestArithBeatsVLCOnTypicalResiduals(t *testing.T) {
	// The headline property of the extension: on residual-like statistics
	// the adaptive coder spends fewer bits than the static run-level VLC.
	blocks := randomBlocks(2000, 5, 6, 5)
	w := NewBitWriter()
	for i := range blocks {
		w.WriteBlock4x4(&blocks[i])
	}
	vlcBits := w.Len()

	e := NewArithEncoder()
	rc := NewResidualContexts()
	for i := range blocks {
		rc.EncodeBlock4x4(e, &blocks[i])
	}
	arithBits := len(e.Finish()) * 8
	if arithBits >= vlcBits {
		t.Fatalf("arithmetic coding (%d bits) should beat VLC (%d bits) on residual statistics",
			arithBits, vlcBits)
	}
}

func TestArithDecoderNoPanicOnTruncation(t *testing.T) {
	blocks := randomBlocks(50, 8, 30, 6)
	e := NewArithEncoder()
	erc := NewResidualContexts()
	for i := range blocks {
		erc.EncodeBlock4x4(e, &blocks[i])
	}
	data := e.Finish()
	for cut := 0; cut < len(data); cut += 7 {
		d := NewArithDecoder(data[:cut])
		drc := NewResidualContexts()
		for i := 0; i < len(blocks); i++ {
			var out [16]int32
			if !drc.DecodeBlock4x4(d, &out) {
				break // corrupt syntax detected — fine
			}
		}
	}
}

func TestContextReset(t *testing.T) {
	c := NewContext()
	c.update(1)
	c.update(1)
	if c.p == probInit {
		t.Fatal("context did not adapt")
	}
	c.Reset()
	if c.p != probInit {
		t.Fatal("Reset did not restore the initial state")
	}
	rc := NewResidualContexts()
	e := NewArithEncoder()
	var blk [16]int32
	blk[3] = 4
	rc.EncodeBlock4x4(e, &blk)
	rc.Reset()
	if rc.cbf.p != probInit || rc.sig[0].p != probInit {
		t.Fatal("ResidualContexts.Reset incomplete")
	}
}

func BenchmarkArithBlock(b *testing.B) {
	blocks := randomBlocks(64, 6, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewArithEncoder()
		rc := NewResidualContexts()
		for j := range blocks {
			rc.EncodeBlock4x4(e, &blocks[j])
		}
		e.Finish()
	}
}

func BenchmarkVLCBlock(b *testing.B) {
	blocks := randomBlocks(64, 6, 8, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewBitWriter()
		for j := range blocks {
			w.WriteBlock4x4(&blocks[j])
		}
		w.Bytes()
	}
}

// TestArithEncoderResetStartsAFreshChunk codes two different chunks on one
// encoder with Reset between them; the second must be what a new encoder
// produces, with nothing of the first (pending bytes, carry, range) left.
func TestArithEncoderResetStartsAFreshChunk(t *testing.T) {
	chunk := func(e *ArithEncoder, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		ctx := NewContext()
		for i := 0; i < 700; i++ {
			e.EncodeBit(&ctx, uint32(rng.Intn(5)/4))
			e.EncodeBypass(uint32(rng.Intn(2)))
		}
		return e.Finish()
	}
	reused := NewArithEncoder()
	chunk(reused, 1)
	reused.Reset()
	got := chunk(reused, 2)
	if want := chunk(NewArithEncoder(), 2); !bytes.Equal(got, want) {
		t.Fatalf("chunk after Reset differs from a fresh encoder's (%d vs %d bytes)", len(got), len(want))
	}
}
