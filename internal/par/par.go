// Package par provides the bounded worker pool that drives the placer's
// parallel hot paths (wirelength, density, routing estimates). It is built
// around one non-negotiable contract: determinism. A computation run through
// the pool must produce bit-identical results for every worker count,
// including one — otherwise placements would stop being reproducible and the
// golden tests of this repository would be meaningless.
//
// The pool achieves that by separating *computation* from *reduction*: Run
// distributes disjoint index chunks to workers dynamically (an atomic
// cursor) for load balance. Workers must only write to per-index slots —
// never to shared accumulators — so the schedule cannot influence the
// result. A caller that accumulates inside the parallel section must own
// its targets per chunk: the density splat hands each chunk a band of bin
// rows and visits the cells in ascending order within it, so every bin
// receives its additions in serial order whatever the banding.
//
// Floating-point reductions that must match a serial loop bit-for-bit are
// done by the caller, serially, in index order, over the per-index results
// the parallel phase produced.
//
// Cancellation is cooperative and conservative: Run checks the context
// before dispatching work and between chunks, stops handing out new chunks
// once it expires, and returns the context error. Chunks that already
// started always run to completion, so a non-nil error is the only signal
// that the output is incomplete; callers must discard it. A nil or
// single-worker pool executes inline on the calling goroutine with no
// goroutines and no synchronization — the exact serial code path.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value and the nil pool are valid
// and execute everything inline on the calling goroutine (worker count 1).
// A Pool carries no goroutines between calls — workers are spawned per
// operation and joined before it returns — so a Pool is safe to share and
// cheap to hold for the lifetime of a solver.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count. Zero or negative means
// GOMAXPROCS(0), the number of OS threads Go will actually run in parallel.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// minGrain is the smallest chunk Run hands to a worker when the caller
// passes grain <= 0; it bounds scheduling overhead for tiny items.
const minGrain = 16

// Run executes fn over the half-open ranges that partition [0, n), handing
// chunks of about `grain` indices to workers dynamically. fn must confine
// its writes to the slots of its own range. Returns ctx.Err() when the
// context expired before all chunks were dispatched — the caller must then
// treat the output as incomplete. A nil ctx is treated as background.
func (p *Pool) Run(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = minGrain
	}
	w := p.Workers()
	if w == 1 || n <= grain {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		fn(0, n)
		return nil
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d := &dispatch{ctx: ctx, n: n, grain: grain, fn: fn}
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runChunks()
		}()
	}
	wg.Wait()
	if d.stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// dispatch is the shared state of one Run invocation: the chunk
// cursor the workers race on, the cooperative stop flag, and the kernel
// closure they all execute.
type dispatch struct {
	ctx      context.Context
	n, grain int
	fn       func(lo, hi int)
	cursor   atomic.Int64
	stopped  atomic.Bool
}

// runChunks is the per-worker dispatch loop: claim a chunk from the shared
// cursor, check cancellation, run the kernel over it, repeat. It sits
// between every pair of kernel chunks on every parallel hot path, so the
// DESIGN.md §14 zero-allocation contract applies to the loop itself —
// only atomics, the context poll, and the kernel call.
//
//placelint:hotpath
func (d *dispatch) runChunks() {
	for {
		if d.stopped.Load() {
			return
		}
		lo := int(d.cursor.Add(int64(d.grain))) - d.grain
		if lo >= d.n {
			return
		}
		if err := ctxErr(d.ctx); err != nil {
			d.stopped.Store(true)
			return
		}
		hi := lo + d.grain
		if hi > d.n {
			hi = d.n
		}
		//placelint:ignore hotalloc the kernel closure is the caller's to keep allocation-free; the §14 kernels it wraps carry their own hotpath contracts
		d.fn(lo, hi)
	}
}

// ctxErr is ctx.Err() with nil-context tolerance.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
