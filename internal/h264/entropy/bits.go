// Package entropy implements the entropy-coding substrate of the FEVES
// reproduction: MSB-first bit I/O, Exp-Golomb universal codes (the ue(v) and
// se(v) descriptors of H.264/AVC), zig-zag scanning and a CAVLC-style
// run-level coder for quantized 4×4 transform blocks, together with the
// matching decoder used to verify bitstreams end-to-end.
package entropy

import (
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the stream.
var ErrUnexpectedEOF = errors.New("entropy: unexpected end of bitstream")

// BitWriter assembles a bitstream MSB-first.
type BitWriter struct {
	buf  []byte
	cur  uint8
	nCur uint // bits already placed in cur (0..7)
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Reset empties the writer, keeping its buffer for the next stream.
func (w *BitWriter) Reset() { w.buf, w.cur, w.nCur = w.buf[:0], 0, 0 }

// WriteBit appends a single bit (0 or 1).
func (w *BitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the n low-order bits of v, most significant first.
// n must be in [0, 32].
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic(fmt.Sprintf("entropy: WriteBits n=%d", n))
	}
	for n > 0 {
		k := min(8-w.nCur, n) // as many bits as the current byte still takes
		n -= k
		w.cur = w.cur<<k | uint8(v>>n)&(1<<k-1)
		if w.nCur += k; w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// Append appends every bit written to src so far, whatever the bit phase
// of either writer; src is left as it was.
func (w *BitWriter) Append(src *BitWriter) {
	if w.nCur == 0 {
		w.buf = append(w.buf, src.buf...)
	} else {
		for _, b := range src.buf {
			w.WriteBits(uint32(b), 8)
		}
	}
	w.WriteBits(uint32(src.cur), src.nCur)
}

// Len returns the number of whole bits written so far.
func (w *BitWriter) Len() int { return len(w.buf)*8 + int(w.nCur) }

// Bytes flushes with zero padding to a byte boundary and returns the
// underlying buffer. Further writes append after the padding.
func (w *BitWriter) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.nCur))
		w.cur, w.nCur = 0, 0
	}
	return w.buf
}

// AlignByte pads with zero bits to the next byte boundary.
func (w *BitWriter) AlignByte() { w.WriteBits(0, (8-w.nCur)&7) }

// BitReader consumes a bitstream MSB-first.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf)*8 {
		return 0, ErrUnexpectedEOF
	}
	b := (r.buf[r.pos>>3] >> (7 - uint(r.pos&7))) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits returns the next n bits as an unsigned value (n ≤ 32).
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic(fmt.Sprintf("entropy: ReadBits n=%d", n))
	}
	var v uint32
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// AlignByte skips to the next byte boundary.
func (r *BitReader) AlignByte() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
	}
}

// Pos returns the current bit position.
func (r *BitReader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.buf)*8 - r.pos }

// WriteBytes appends whole bytes; the writer must be byte-aligned (used to
// embed arithmetic-coded chunks in the bitstream).
func (w *BitWriter) WriteBytes(data []byte) {
	if w.nCur != 0 {
		panic("entropy: WriteBytes on unaligned writer")
	}
	w.buf = append(w.buf, data...)
}

// ReadBytes consumes n whole bytes; the reader must be byte-aligned.
func (r *BitReader) ReadBytes(n int) ([]byte, error) {
	if r.pos&7 != 0 {
		panic("entropy: ReadBytes on unaligned reader")
	}
	start := r.pos >> 3
	if start+n > len(r.buf) {
		return nil, ErrUnexpectedEOF
	}
	r.pos += n * 8
	return r.buf[start : start+n], nil
}
