package h264

import (
	"fmt"
	"runtime"
	"sync"
)

// RowKernel is a row-sliceable kernel: RunRows processes rows [lo, hi) and
// must be safe to call concurrently on disjoint ranges. All the inter-loop
// kernels (ME search, SME refinement, interpolation, per-plane deblocking)
// satisfy this by construction — their row slices write disjoint output.
type RowKernel interface {
	RunRows(lo, hi int)
}

// RowFunc adapts a plain function to RowKernel.
type RowFunc func(lo, hi int)

// RunRows implements RowKernel.
func (f RowFunc) RunRows(lo, hi int) { f(lo, hi) }

// RowTask is one kernel dispatch of a batch: rows [Lo, Hi) of K.
type RowTask struct {
	K      RowKernel
	Lo, Hi int
}

// rowJob is one contiguous chunk of a task. Jobs travel by value through
// the channel, so enqueueing performs no allocation.
type rowJob struct {
	k      RowKernel
	lo, hi int
	wg     *sync.WaitGroup
}

func (j rowJob) run() {
	j.k.RunRows(j.lo, j.hi)
	j.wg.Done()
}

// RowPool executes row-sliceable kernels across a fixed set of worker
// goroutines. The pool is allocation-free in steady state: jobs are passed
// by value and the WaitGroups are recycled through a freelist channel.
type RowPool struct {
	jobs    chan rowJob
	wgs     chan *sync.WaitGroup
	workers int
}

// NewRowPool starts a pool with the given number of worker goroutines.
// The workers live for the lifetime of the process; shared use should go
// through ParallelBatch instead of creating per-encoder pools.
func NewRowPool(workers int) *RowPool {
	if workers < 1 {
		panic(fmt.Sprintf("h264: row pool needs >= 1 worker, got %d", workers))
	}
	p := &RowPool{
		// A few chunks of headroom per worker, so a caller rarely blocks
		// while it enqueues a batch.
		jobs:    make(chan rowJob, 4*workers),
		wgs:     make(chan *sync.WaitGroup, workers+1),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.jobs {
				j.run()
			}
		}()
	}
	for i := 0; i < cap(p.wgs); i++ {
		p.wgs <- new(sync.WaitGroup)
	}
	return p
}

// Run executes a batch of mutually independent tasks: every task's range
// is cut into at most ways contiguous chunks, all chunks are enqueued, the
// caller then works the queue alongside the workers until it is empty, and
// Run returns when every row of every task is processed. ways <= 1 runs
// the tasks one after another on the caller. The chunking is deterministic
// (ceil division), but the kernels must be order-independent across chunks
// and tasks for the result to be well-defined; the row-sliceable kernels
// are bit-exact under any partitioning. A kernel must not call back into
// the pool: nothing that runs a chunk ever waits on another chunk, which is
// what keeps a full job channel from deadlocking however many callers
// submit at once.
func (p *RowPool) Run(tasks []RowTask, ways int) {
	if ways <= 1 {
		for _, t := range tasks {
			if t.Hi > t.Lo {
				t.K.RunRows(t.Lo, t.Hi)
			}
		}
		return
	}
	wg := <-p.wgs
	for _, t := range tasks {
		n := t.Hi - t.Lo
		if n <= 0 {
			continue
		}
		chunk := (n + ways - 1) / ways // may yield fewer than ways chunks
		for lo := t.Lo; lo < t.Hi; lo += chunk {
			wg.Add(1)
			p.jobs <- rowJob{k: t.K, lo: lo, hi: min(lo+chunk, t.Hi), wg: wg}
		}
	}
	// The queue is shared by every caller, so the chunks drained here may
	// be another batch's. A caller that slept instead would leave its last
	// chunks queued behind other callers' long ones.
	for {
		select {
		case j := <-p.jobs:
			j.run()
		default:
			wg.Wait()
			p.wgs <- wg
			return
		}
	}
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *RowPool
)

func sharedRowPool() *RowPool {
	sharedPoolOnce.Do(func() {
		sharedPool = NewRowPool(runtime.GOMAXPROCS(0))
	})
	return sharedPool
}

// BalancedWays is the ways value for a batch that should keep the whole
// shared pool busy to its end: four chunks per worker. Cut once per worker,
// whoever draws a batch's cheap tasks (the INT ranges beside ME) idles
// while the others finish one long chunk each.
func BalancedWays() int { return 4 * sharedRowPool().workers }

// ParallelBatch runs a batch on the process-shared row pool (GOMAXPROCS
// workers), so the goroutines working on kernels stay bounded by the host's
// cores however many encoders submit frames at once.
func ParallelBatch(tasks []RowTask, ways int) { sharedRowPool().Run(tasks, ways) }

// ParallelRows is the batch of one: rows [lo, hi) of a single kernel in at
// most ways chunks on the shared pool.
func ParallelRows(k RowKernel, lo, hi, ways int) {
	ParallelBatch([]RowTask{{k, lo, hi}}, ways)
}
