package codec

import (
	"math"

	"feves/internal/h264"
	"feves/internal/h264/deblock"
	"feves/internal/h264/interp"
	"feves/internal/h264/mc"
)

// The poison values: what Encoder.poison overwrites a buffer with before
// the encoder reuses it. No encode produces them, so a stage that reads a
// sample, vector or level an earlier frame left behind changes the stream.
const poisonByte = 0xA5

var poisonMV = h264.MV{X: math.MinInt16, Y: math.MinInt16}

func poisonFrame(f *h264.Frame) {
	for _, p := range planes(f) {
		p.Fill(poisonByte)
	}
	f.Poc, f.IsIntra = math.MinInt32, true
}

func poisonSubFrame(sf *interp.SubFrame) {
	for _, p := range sf.Planes {
		p.Fill(poisonByte)
	}
}

func poisonField(f *h264.MVField) {
	for i := range f.MV {
		f.MV[i], f.Cost[i] = poisonMV, math.MinInt32
	}
}

func poisonDecision(d *mc.Decision) {
	for i := range d.MBs {
		mb := &d.MBs[i]
		*mb = h264.MBDecision{Mode: h264.Part4x4, Cost: math.MinInt32}
		for k := range mb.MV {
			mb.Ref[k], mb.MV[k] = poisonByte, poisonMV
		}
	}
}

func poisonBlockInfo(bi *deblock.BlockInfo, repMV []h264.MV) {
	for i := range bi.NZ {
		bi.NZ[i], bi.MV[i], bi.Ref[i] = true, poisonMV, poisonByte
	}
	for i := range bi.Intra {
		bi.Intra[i], repMV[i] = true, poisonMV
	}
}
