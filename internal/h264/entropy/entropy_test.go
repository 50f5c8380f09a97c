package entropy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBit(1)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBit(0)
	data := w.Bytes()
	r := NewBitReader(data)
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("bit 0")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("nibble = %b", v)
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Fatalf("word = %x", v)
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("final bit")
	}
}

func TestBitWriterLenAndAlign(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0x7, 3)
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	w.AlignByte()
	if w.Len() != 8 {
		t.Fatalf("Len after align = %d, want 8", w.Len())
	}
	data := w.Bytes()
	if len(data) != 1 || data[0] != 0xE0 {
		t.Fatalf("bytes = %x", data)
	}
}

func TestBitReaderEOF(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := r.ReadBits(4); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestBitReaderAlignAndRemaining(t *testing.T) {
	r := NewBitReader([]byte{0xAB, 0xCD})
	r.ReadBits(3)
	r.AlignByte()
	if r.Pos() != 8 || r.Remaining() != 8 {
		t.Fatalf("pos=%d rem=%d", r.Pos(), r.Remaining())
	}
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Fatalf("post-align byte = %x", v)
	}
}

func TestUEKnownCodes(t *testing.T) {
	// Table 9-1 of the H.264 spec: 0→1, 1→010, 2→011, 3→00100...
	cases := []struct {
		v    uint32
		bits string
	}{
		{0, "1"}, {1, "010"}, {2, "011"}, {3, "00100"}, {4, "00101"},
		{5, "00110"}, {6, "00111"}, {7, "0001000"}, {8, "0001001"},
	}
	for _, c := range cases {
		w := NewBitWriter()
		w.WriteUE(c.v)
		got := bitString(w)
		if got != c.bits {
			t.Errorf("ue(%d) = %s, want %s", c.v, got, c.bits)
		}
		if UEBits(c.v) != len(c.bits) {
			t.Errorf("UEBits(%d) = %d, want %d", c.v, UEBits(c.v), len(c.bits))
		}
	}
}

func TestSEMapping(t *testing.T) {
	// se(v): 0→"1", 1→"010", -1→"011", 2→"00100", -2→"00101".
	cases := []struct {
		v    int32
		bits string
	}{{0, "1"}, {1, "010"}, {-1, "011"}, {2, "00100"}, {-2, "00101"}}
	for _, c := range cases {
		w := NewBitWriter()
		w.WriteSE(c.v)
		if got := bitString(w); got != c.bits {
			t.Errorf("se(%d) = %s, want %s", c.v, got, c.bits)
		}
		if SEBits(c.v) != len(c.bits) {
			t.Errorf("SEBits(%d) = %d, want %d", c.v, SEBits(c.v), len(c.bits))
		}
	}
}

func TestUERoundTripQuick(t *testing.T) {
	f := func(vals []uint32) bool {
		w := NewBitWriter()
		for _, v := range vals {
			w.WriteUE(v % (1 << 20))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadUE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSERoundTripQuick(t *testing.T) {
	f := func(vals []int32) bool {
		w := NewBitWriter()
		for _, v := range vals {
			w.WriteSE(v % (1 << 18))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadSE()
			if err != nil || got != v%(1<<18) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagIsPermutation(t *testing.T) {
	seen := [16]bool{}
	for _, r := range ZigZag4x4 {
		if r < 0 || r > 15 || seen[r] {
			t.Fatalf("zig-zag not a permutation: %v", ZigZag4x4)
		}
		seen[r] = true
	}
	// First entries follow the standard order.
	want := [6]int{0, 1, 4, 8, 5, 2}
	for i, w := range want {
		if ZigZag4x4[i] != w {
			t.Fatalf("ZigZag4x4[%d] = %d, want %d", i, ZigZag4x4[i], w)
		}
	}
}

func TestBlock4x4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		var blk [16]int32
		nz := rng.Intn(17)
		for i := 0; i < nz; i++ {
			blk[rng.Intn(16)] = int32(rng.Intn(512) - 256)
		}
		w := NewBitWriter()
		w.WriteBlock4x4(&blk)
		wantBits := w.Len()
		if got := Block4x4Bits(&blk); got != wantBits {
			t.Fatalf("Block4x4Bits = %d, written %d", got, wantBits)
		}
		var out [16]int32
		if err := NewBitReader(w.Bytes()).ReadBlock4x4(&out); err != nil {
			t.Fatal(err)
		}
		if out != blk {
			t.Fatalf("round trip mismatch:\n in  %v\n out %v", blk, out)
		}
	}
}

func TestBlock4x4ZeroBlockIsOneBit(t *testing.T) {
	var blk [16]int32
	w := NewBitWriter()
	w.WriteBlock4x4(&blk)
	if w.Len() != 1 {
		t.Fatalf("zero block costs %d bits, want 1", w.Len())
	}
}

func TestBlock4x4DecodeErrors(t *testing.T) {
	// Truncated stream.
	w := NewBitWriter()
	var blk [16]int32
	blk[0], blk[15] = 5, -3
	w.WriteBlock4x4(&blk)
	data := w.Bytes()
	var out [16]int32
	if err := NewBitReader(data[:1]).ReadBlock4x4(&out); err == nil {
		t.Fatal("expected error on truncated stream")
	}
	// nz > 16 is rejected.
	w2 := NewBitWriter()
	w2.WriteUE(17)
	w2.AlignByte()
	if err := NewBitReader(w2.Bytes()).ReadBlock4x4(&out); err == nil {
		t.Fatal("expected error on nz > 16")
	}
}

func TestWriteBitsPanicsOver32(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitWriter().WriteBits(0, 33)
}

func bitString(w *BitWriter) string {
	n := w.Len()
	data := w.Bytes()
	s := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		if data[i>>3]>>(7-uint(i&7))&1 == 1 {
			s = append(s, '1')
		} else {
			s = append(s, '0')
		}
	}
	return string(s)
}

// TestBitWriterAppendEveryPhase appends a source holding 0–23 bits to a
// destination holding 0–15, so every pairing of bit phases occurs, and
// checks the result against writing the same bits one at a time — which
// also pins WriteBits' byte-at-a-time placement to WriteBit.
func TestBitWriterAppendEveryPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bits := make([]uint, 48)
	for i := range bits {
		bits[i] = uint(rng.Intn(2))
	}
	for dstN := 0; dstN < 16; dstN++ {
		for srcN := 0; srcN < 24; srcN++ {
			want, dst, src := NewBitWriter(), NewBitWriter(), NewBitWriter()
			for _, b := range bits[:dstN+srcN] {
				want.WriteBit(b)
			}
			// Multi-bit writes on both sides, in uneven pieces.
			writeIn := func(w *BitWriter, bs []uint) {
				for len(bs) > 0 {
					n := min(len(bs), 1+len(bs)%11)
					var v uint32
					for _, b := range bs[:n] {
						v = v<<1 | uint32(b)
					}
					w.WriteBits(v|0xFFFF<<n, uint(n)) // bits above n must be ignored
					bs = bs[n:]
				}
			}
			writeIn(dst, bits[:dstN])
			writeIn(src, bits[dstN:dstN+srcN])
			srcLen := src.Len()
			dst.Append(src)
			if dst.Len() != dstN+srcN || src.Len() != srcLen {
				t.Fatalf("dst %d + src %d bits: lengths %d and %d after Append", dstN, srcN, dst.Len(), src.Len())
			}
			if !bytes.Equal(dst.Bytes(), want.Bytes()) {
				t.Fatalf("dst %d + src %d bits: got %x want %x", dstN, srcN, dst.Bytes(), want.Bytes())
			}
		}
	}
}

func TestBitWriterReset(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0x1FF, 9)
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len %d after Reset", w.Len())
	}
	w.WriteBits(0x5, 3)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xA0 {
		t.Fatalf("after Reset wrote %x, want a0", got)
	}
}
