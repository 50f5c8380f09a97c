package entropy

// This file implements the reproduction's optional arithmetic-coding
// entropy backend: an adaptive binary range coder in the style of
// H.264/AVC's CABAC (Main profile), usable in place of the CAVLC-style
// run-level coder of the Baseline profile the paper evaluates. The coder
// is an LZMA-style carry-propagating range coder with 16-bit adaptive
// contexts — simpler than the standard's M-coder but with the same
// architecture (context modelling + binary arithmetic core + bypass path).

const (
	probBits  = 16
	probInit  = 1 << (probBits - 1) // p(0) = 0.5
	probShift = 5                   // adaptation rate
	topValue  = 1 << 24
)

// Context is one adaptive binary probability model. The zero value is
// invalid; use NewContext or Reset.
type Context struct {
	p uint32 // probability that the next bit is 0, scaled to 1<<16
}

// NewContext returns an equiprobable context.
func NewContext() Context { return Context{p: probInit} }

// Reset re-initializes the context to equiprobable.
func (c *Context) Reset() { c.p = probInit }

func (c *Context) update(bit uint32) {
	if bit == 0 {
		c.p += ((1 << probBits) - c.p) >> probShift
	} else {
		c.p -= c.p >> probShift
	}
}

// ArithEncoder encodes bits into a byte stream.
type ArithEncoder struct {
	low     uint64
	rng     uint32
	cache   byte
	pending int
	started bool
	out     []byte
}

// NewArithEncoder returns a fresh encoder.
func NewArithEncoder() *ArithEncoder {
	return &ArithEncoder{rng: 0xFFFFFFFF}
}

// Reset returns the encoder to its initial state for the next chunk,
// keeping its output buffer: the bytes Finish returned are overwritten.
func (e *ArithEncoder) Reset() { *e = ArithEncoder{rng: 0xFFFFFFFF, out: e.out[:0]} }

// EncodeBit encodes one bit under the adaptive context.
func (e *ArithEncoder) EncodeBit(c *Context, bit uint32) {
	bound := (e.rng >> probBits) * c.p
	if bit == 0 {
		e.rng = bound
	} else {
		e.low += uint64(bound)
		e.rng -= bound
	}
	c.update(bit)
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

// EncodeBypass encodes one equiprobable bit without a context (the CABAC
// bypass path, used for signs and suffix bits).
func (e *ArithEncoder) EncodeBypass(bit uint32) {
	e.rng >>= 1
	if bit != 0 {
		e.low += uint64(e.rng)
	}
	for e.rng < topValue {
		e.shiftLow()
		e.rng <<= 8
	}
}

// EncodeBypassBits encodes the n low-order bits of v, MSB first, on the
// bypass path.
func (e *ArithEncoder) EncodeBypassBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.EncodeBypass((v >> uint(i)) & 1)
	}
}

func (e *ArithEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		carry := byte(e.low >> 32)
		if e.started {
			e.out = append(e.out, e.cache+carry)
		}
		for ; e.pending > 0; e.pending-- {
			e.out = append(e.out, 0xFF+carry)
		}
		e.cache = byte(e.low >> 24)
		e.started = true
	} else {
		e.pending++
	}
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// Finish flushes the coder and returns the coded bytes. The encoder must
// not be used afterwards.
func (e *ArithEncoder) Finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// ArithDecoder decodes a stream produced by ArithEncoder.
type ArithDecoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

// NewArithDecoder wraps the coded bytes. Reading past the end yields zero
// bytes, which surfaces as corrupt syntax at a higher level rather than a
// panic.
func NewArithDecoder(data []byte) *ArithDecoder {
	d := &ArithDecoder{rng: 0xFFFFFFFF, in: data}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return d
}

func (d *ArithDecoder) next() byte {
	if d.pos >= len(d.in) {
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// DecodeBit decodes one bit under the adaptive context.
func (d *ArithDecoder) DecodeBit(c *Context) uint32 {
	bound := (d.rng >> probBits) * c.p
	var bit uint32
	if d.code < bound {
		d.rng = bound
	} else {
		bit = 1
		d.code -= bound
		d.rng -= bound
	}
	c.update(bit)
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bit
}

// DecodeBypass decodes one equiprobable bit.
func (d *ArithDecoder) DecodeBypass() uint32 {
	d.rng >>= 1
	var bit uint32
	if d.code >= d.rng {
		bit = 1
		d.code -= d.rng
	}
	for d.rng < topValue {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
	return bit
}

// DecodeBypassBits decodes n bypass bits, MSB first.
func (d *ArithDecoder) DecodeBypassBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v = v<<1 | d.DecodeBypass()
	}
	return v
}
