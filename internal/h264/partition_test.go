package h264

import "testing"

func TestPartitionCountsSumTo41(t *testing.T) {
	sum := 0
	for _, m := range AllModes {
		sum += m.Count()
	}
	if sum != TotalPartitions {
		t.Fatalf("total partitions = %d, want %d", sum, TotalPartitions)
	}
}

func TestPartitionAreasTile(t *testing.T) {
	// Every mode must tile the 16x16 macroblock exactly.
	for _, m := range AllModes {
		w, h := m.Size()
		if w*h*m.Count() != MBSize*MBSize {
			t.Errorf("mode %v: %d partitions of %dx%d do not tile the MB", m, m.Count(), w, h)
		}
		covered := make([]bool, MBSize*MBSize)
		for k := 0; k < m.Count(); k++ {
			x0, y0 := m.Offset(k)
			for y := y0; y < y0+h; y++ {
				for x := x0; x < x0+w; x++ {
					if covered[y*MBSize+x] {
						t.Fatalf("mode %v: pixel (%d,%d) covered twice", m, x, y)
					}
					covered[y*MBSize+x] = true
				}
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("mode %v: pixel %d not covered", m, i)
			}
		}
	}
}

func TestPartitionBase(t *testing.T) {
	wantBase := map[PartMode]int{
		Part16x16: 0, Part16x8: 1, Part8x16: 3, Part8x8: 5,
		Part8x4: 9, Part4x8: 17, Part4x4: 25,
	}
	for m, want := range wantBase {
		if got := m.Base(); got != want {
			t.Errorf("%v.Base() = %d, want %d", m, got, want)
		}
	}
	if Part4x4.Base()+Part4x4.Count() != TotalPartitions {
		t.Fatal("flat partition index space is not 41 entries")
	}
}

func TestBlocks4x4Coverage(t *testing.T) {
	for _, m := range AllModes {
		seen := make(map[int]bool)
		for k := 0; k < m.Count(); k++ {
			blocks := m.Blocks4x4(k)
			w, h := m.Size()
			if len(blocks) != (w/4)*(h/4) {
				t.Fatalf("mode %v part %d: %d blocks, want %d", m, k, len(blocks), (w/4)*(h/4))
			}
			for _, b := range blocks {
				if b < 0 || b >= 16 {
					t.Fatalf("mode %v: block index %d out of range", m, b)
				}
				if seen[b] {
					t.Fatalf("mode %v: block %d assigned to two partitions", m, b)
				}
				seen[b] = true
			}
		}
		if len(seen) != 16 {
			t.Fatalf("mode %v: partitions cover %d blocks, want 16", m, len(seen))
		}
	}
}

func TestBlocks4x4SpecificGeometry(t *testing.T) {
	// Partition 1 of 16x8 is the bottom half: blocks 8..15.
	got := Part16x8.Blocks4x4(1)
	want := []int{8, 9, 10, 11, 12, 13, 14, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block list %v, want %v", got, want)
		}
	}
	// Partition 3 of 8x8 is the bottom-right quadrant.
	got = Part8x8.Blocks4x4(3)
	want = []int{10, 11, 14, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("8x8 part 3 blocks %v, want %v", got, want)
		}
	}
}

func TestPartModeString(t *testing.T) {
	if Part16x16.String() != "16x16" || Part4x4.String() != "4x4" {
		t.Fatal("String() labels wrong")
	}
	if PartMode(99).String() != "invalid" {
		t.Fatal("invalid mode label wrong")
	}
}
