// Package par provides bounded-worker parallel fan-out helpers for
// the independent loops in the protocol stack and the curve
// primitives: per-coordinate fan-out (hpske transports and linear
// combinations, dlr share combinations, device protocol instances,
// per-pair final exponentiations) via ForEach, and contiguous-range
// partitioning (the lockstep Miller-loop chunks of MultiPair and
// PairBatch) via Chunks.
//
// Work is dispatched by an atomic index so workers self-balance, and
// the worker count is capped at GOMAXPROCS — on a single-core host
// every helper degrades to a plain sequential loop with no goroutine
// overhead. Callers that trade per-item overhead for parallelism
// (the extra accumulators of a chunked Miller loop) gate on a minimum
// chunk size so small inputs keep their serial fast path;
// docs/ARCHITECTURE.md ("Parallel execution model") records which
// phases fan out and at what sizes.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers returns the fan-out cap every helper in this package
// honours: GOMAXPROCS at call time.
func workers() int { return runtime.GOMAXPROCS(0) }

// Chunks partitions [0, n) into at most GOMAXPROCS contiguous
// half-open ranges [lo, hi), each covering at least minChunk indices
// (the last chunks may be one element larger to absorb the
// remainder). It returns nil for n ≤ 0 and a single full-range chunk
// whenever parallelism cannot help — one worker, or n < 2·minChunk —
// so callers can branch on len(chunks) > 1 to keep their serial
// zero-overhead path.
func Chunks(n, minChunk int) [][2]int {
	if n <= 0 {
		return nil
	}
	if minChunk < 1 {
		minChunk = 1
	}
	k := n / minChunk
	if w := workers(); k > w {
		k = w
	}
	if k < 1 {
		k = 1
	}
	out := make([][2]int, 0, k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// ForEach invokes f(i) for every i in [0, n), spreading calls across
// min(n, GOMAXPROCS) workers and returning when all calls have
// finished. f must be safe to call concurrently from multiple
// goroutines; iteration order is unspecified. Panics in f propagate to
// the caller (from an arbitrary worker, once per ForEach).
func ForEach(n int, f func(int)) {
	if n <= 0 {
		return
	}
	nw := workers()
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
