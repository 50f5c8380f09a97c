package entropy

// WriteUE appends an unsigned Exp-Golomb code (the ue(v) descriptor of the
// H.264/AVC syntax): codeNum v is written as (leadingZeros zeros, 1,
// leadingZeros info bits) where v+1 has leadingZeros+1 significant bits.
func (w *BitWriter) WriteUE(v uint32) {
	x := v + 1
	n := bitLen32(x)
	w.WriteBits(0, uint(n-1))
	w.WriteBits(x, uint(n))
}

// ReadUE decodes an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, ErrUnexpectedEOF
		}
	}
	info, err := r.ReadBits(uint(zeros))
	if err != nil {
		return 0, err
	}
	return (1<<uint(zeros) | info) - 1, nil
}

// WriteSE appends a signed Exp-Golomb code (the se(v) descriptor):
// v > 0 maps to 2v−1, v ≤ 0 maps to −2v.
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

// ReadSE decodes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u&1 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// UEBits returns the length in bits of the ue(v) code for v, without
// writing it. Mode decision uses it to estimate motion-vector rate.
func UEBits(v uint32) int {
	return 2*bitLen32(v+1) - 1
}

// SEBits returns the length in bits of the se(v) code for v.
func SEBits(v int32) int {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	return UEBits(u)
}

func bitLen32(x uint32) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}
