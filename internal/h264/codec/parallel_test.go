package codec

import (
	"bytes"
	"testing"
)

// encodeWithWorkers encodes a short moving scene with the given
// KernelWorkers setting and returns the bitstream.
func encodeWithWorkers(t *testing.T, w, h, workers int) []byte {
	t.Helper()
	cfg := testConfig(w, h)
	cfg.KernelWorkers = workers
	enc, err := NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range movingScene(w, h, 6, 11) {
		if _, err := enc.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return enc.Bitstream()
}

// TestKernelWorkersBitExact pins the slice-parallel contract end to end:
// routing ME search, interpolation, sub-pel refinement and plane-parallel
// deblocking through the row pool must reproduce the serial bitstream
// byte for byte. The 112×176 frame has 11 macroblock rows — an odd count
// no tested worker count divides, so every run exercises uneven chunking
// and a short final chunk. Run under -race this also proves the row
// slices share no samples.
func TestKernelWorkersBitExact(t *testing.T) {
	for _, size := range []struct{ w, h int }{{112, 176}, {176, 112}} {
		serial := encodeWithWorkers(t, size.w, size.h, 0)
		for _, workers := range []int{2, 4, 8} {
			got := encodeWithWorkers(t, size.w, size.h, workers)
			if !bytes.Equal(got, serial) {
				t.Errorf("%dx%d: %d kernel workers changed the bitstream (%d vs %d bytes)",
					size.w, size.h, workers, len(got), len(serial))
			}
		}
	}
}

// TestRunInterMatchesSerialStages drives RunInter the way the VCM does —
// uneven per-device row ranges, different for ME, INT and SME, every range
// cut ways ways on the shared pool — against the serial RunME / RunINT /
// RunSME stages on a second encoder, and checks the motion fields, the
// interpolated sub-frame and the frame stats stay bit-exact stage by
// stage. The 112×176 frame has 11 macroblock rows.
func TestRunInterMatchesSerialStages(t *testing.T) {
	const w, h = 112, 176
	scene := movingScene(w, h, 4, 7)
	two := InterPlan{
		ME:  []RowRange{{0, 3}, {3, 11}},
		INT: []RowRange{{0, 9}, {9, 11}},
		SME: []RowRange{{0, 1}, {1, 11}},
	}
	five := InterPlan{
		ME:  []RowRange{{0, 6}, {6, 7}, {7, 8}, {8, 10}, {10, 11}},
		INT: []RowRange{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 11}},
		SME: []RowRange{{0, 4}, {4, 5}, {5, 5}, {5, 9}, {9, 11}}, // one device idle
	}
	for _, plan := range []InterPlan{two, five} {
		for _, ways := range []int{1, 3, 8} {
			plan.Ways = ways
			par, err := NewEncoder(testConfig(w, h))
			if err != nil {
				t.Fatal(err)
			}
			ser, err := NewEncoder(testConfig(w, h))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := par.EncodeFrame(scene[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := ser.EncodeFrame(scene[0]); err != nil {
				t.Fatal(err)
			}
			n := scene[1].MBHeight()
			for _, cf := range scene[1:] {
				jp, js := par.BeginFrame(cf), ser.BeginFrame(cf)
				sp := par.RunInter(jp, &plan)
				ser.RunME(js, 0, n)
				ser.RunINT(js, 0, n)
				ser.CompleteINT(js)
				ser.RunSME(js, 0, n)
				ss := ser.RunRStar(js)
				switch {
				case !jp.ME.Equal(js.ME):
					t.Fatalf("%d ranges, ways %d: ME field differs from serial", len(plan.ME), ways)
				case !jp.NewSF.Equal(js.NewSF):
					t.Fatalf("%d ranges, ways %d: interpolated sub-frame differs from serial", len(plan.ME), ways)
				case !jp.SME.Equal(js.SME):
					t.Fatalf("%d ranges, ways %d: SME field differs from serial", len(plan.ME), ways)
				case sp != ss:
					t.Fatalf("%d ranges, ways %d: frame stats diverged: %+v vs %+v", len(plan.ME), ways, sp, ss)
				}
			}
			if !bytes.Equal(par.Bitstream(), ser.Bitstream()) {
				t.Fatalf("%d ranges, ways %d: bitstream differs from serial", len(plan.ME), ways)
			}
		}
	}
}

// TestSlicesParallelBitExact codes the slices of every frame — intra and
// inter, VLC (headers and blocks in each slice's own writer, spliced at
// whatever bit phase the one before ended on) and arithmetic — at most ways
// at a time on the row pool and requires the serial stream. Five slices over
// 11 macroblock rows are uneven, and at 2 ways a task codes several. Under
// -race this also proves the slices share no state.
func TestSlicesParallelBitExact(t *testing.T) {
	const w, h = 112, 176
	scene := movingScene(w, h, 5, 13)
	encode := func(slices int, arith bool, ways int) []byte {
		cfg := sliceConfig(w, h, slices, arith)
		cfg.IntraPeriod = 3
		cfg.KernelWorkers = ways
		enc, err := NewEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range scene {
			if _, err := enc.EncodeFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return enc.Bitstream()
	}
	for _, slices := range []int{1, 2, 3, 5} {
		for _, arith := range []bool{false, true} {
			serial := encode(slices, arith, 1)
			for _, ways := range []int{2, 8} {
				if got := encode(slices, arith, ways); !bytes.Equal(got, serial) {
					t.Errorf("%d slices, arith %v: %d ways changed the bitstream (%d vs %d bytes)",
						slices, arith, ways, len(got), len(serial))
				}
			}
		}
	}
}
