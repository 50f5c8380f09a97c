package h264

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coverKernel counts, per row, how many times the pool visited it.
type coverKernel struct {
	hits []int32
}

func (k *coverKernel) RunRows(lo, hi int) {
	for r := lo; r < hi; r++ {
		atomic.AddInt32(&k.hits[r], 1)
	}
}

// TestRowPoolCoversEveryRowOnce exercises the ceil-division chunking on
// ranges that do not divide evenly among the requested ways — including
// the n=9/ways=4 shape where ceil division produces fewer chunks than
// ways — plus offset, empty and single-row ranges.
func TestRowPoolCoversEveryRowOnce(t *testing.T) {
	p := NewRowPool(4)
	cases := []struct{ lo, hi, ways int }{
		{0, 9, 4},   // chunk 3 -> only 3 parts for 4 ways
		{0, 11, 3},  // odd row count
		{0, 11, 4},  // odd row count, more ways
		{0, 11, 8},  // GPU_K stream count on a short frame
		{3, 14, 5},  // offset range
		{0, 1, 8},   // single row, many ways
		{0, 16, 16}, // one row per way
		{0, 7, 1},   // serial fallback
		{5, 5, 4},   // empty range
	}
	for _, tc := range cases {
		k := &coverKernel{hits: make([]int32, 20)}
		p.Run([]RowTask{{k, tc.lo, tc.hi}}, tc.ways)
		for r := 0; r < len(k.hits); r++ {
			want := int32(0)
			if r >= tc.lo && r < tc.hi {
				want = 1
			}
			if k.hits[r] != want {
				t.Fatalf("Run(%d, %d, ways=%d): row %d visited %d times, want %d",
					tc.lo, tc.hi, tc.ways, r, k.hits[r], want)
			}
		}
	}
}

// TestParallelRowsCoversEveryRowOnce repeats the coverage check through
// the shared-pool entry point the kernel wrappers use.
func TestParallelRowsCoversEveryRowOnce(t *testing.T) {
	for _, tc := range []struct{ lo, hi, ways int }{
		{0, 11, 4}, {0, 9, 4}, {0, 68, 8}, {0, 3, 0}, {2, 2, 4},
	} {
		k := &coverKernel{hits: make([]int32, 80)}
		ParallelRows(k, tc.lo, tc.hi, tc.ways)
		for r := 0; r < len(k.hits); r++ {
			want := int32(0)
			if r >= tc.lo && r < tc.hi {
				want = 1
			}
			if k.hits[r] != want {
				t.Fatalf("ParallelRows(%d, %d, ways=%d): row %d visited %d times, want %d",
					tc.lo, tc.hi, tc.ways, r, k.hits[r], want)
			}
		}
	}
}

// TestRowPoolBatchConcurrentCallers has several callers at once submit
// batches of more chunks than the job channel holds (a 2-worker pool
// buffers 8): every enqueue beyond the buffer must wait for a worker or a
// draining caller to take a chunk, callers run each other's chunks, no
// caller may deadlock, and every row of every task is visited exactly once.
func TestRowPoolBatchConcurrentCallers(t *testing.T) {
	p := NewRowPool(2)
	const callers, rounds, rows = 6, 20, 40
	ranges := [][2]int{{0, 17}, {17, 18}, {18, 18}, {18, 31}, {31, 40}} // uneven, one empty
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := &coverKernel{hits: make([]int32, rows)}
				b := &coverKernel{hits: make([]int32, rows)}
				var batch []RowTask
				for _, rg := range ranges {
					batch = append(batch, RowTask{a, rg[0], rg[1]}, RowTask{b, rg[0], rg[1]})
				}
				p.Run(batch, 5) // 5+1+0+5+5 chunks per kernel: 32 a batch
				for row := 0; row < rows; row++ {
					if a.hits[row] != 1 || b.hits[row] != 1 {
						t.Errorf("row %d visited %d/%d times, want 1/1", row, a.hits[row], b.hits[row])
						return
					}
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("concurrent batches deadlocked")
	}
}

// TestRowPoolZeroSteadyStateAllocs pins the pool's allocation-free steady
// state: jobs travel by value and WaitGroups come from the freelist, so a
// Run dispatch allocates nothing once the pool exists.
func TestRowPoolZeroSteadyStateAllocs(t *testing.T) {
	p := NewRowPool(4)
	k := &coverKernel{hits: make([]int32, 16)}
	p.Run([]RowTask{{k, 0, 16}}, 4) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		p.Run([]RowTask{{k, 0, 11}, {k, 11, 16}}, 4)
	})
	if allocs != 0 {
		t.Fatalf("RowPool.Run allocates %.1f objects per dispatch, want 0", allocs)
	}
}
