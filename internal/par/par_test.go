package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		seen := make([]atomic.Int32, n)
		ForEach(n, func(i int) {
			seen[i].Add(1)
		})
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestForEachParallelism(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var sum atomic.Int64
	ForEach(100, func(i int) {
		sum.Add(int64(i))
	})
	if got := sum.Load(); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	ForEach(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestForEachNegativeN(t *testing.T) {
	called := false
	ForEach(-5, func(int) { called = true })
	if called {
		t.Fatal("f called for negative n")
	}
}

// checkChunks validates the Chunks contract: contiguous cover of
// [0, n), at most max(1, workers()) chunks, and — when more than one
// chunk is returned — every chunk at least minChunk long.
func checkChunks(t *testing.T, n, minChunk int, cs [][2]int) {
	t.Helper()
	if n <= 0 {
		if cs != nil {
			t.Fatalf("Chunks(%d, %d) = %v, want nil", n, minChunk, cs)
		}
		return
	}
	if len(cs) == 0 || len(cs) > workers() && len(cs) != 1 {
		t.Fatalf("Chunks(%d, %d): %d chunks with %d workers", n, minChunk, len(cs), workers())
	}
	lo := 0
	for _, c := range cs {
		if c[0] != lo || c[1] <= c[0] {
			t.Fatalf("Chunks(%d, %d) = %v: not a contiguous cover", n, minChunk, cs)
		}
		if len(cs) > 1 && c[1]-c[0] < minChunk {
			t.Fatalf("Chunks(%d, %d) = %v: chunk shorter than minChunk", n, minChunk, cs)
		}
		lo = c[1]
	}
	if lo != n {
		t.Fatalf("Chunks(%d, %d) = %v: covers [0, %d), want [0, %d)", n, minChunk, cs, lo, n)
	}
}

func TestChunksCoverAndBounds(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	for _, n := range []int{-3, 0, 1, 2, 5, 7, 16, 100, 1001} {
		for _, min := range []int{0, 1, 3, 8, 50, 2000} {
			checkChunks(t, n, min, Chunks(n, min))
		}
	}
}

func TestChunksSerialWhenSmallOrSingleWorker(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	// n < 2·minChunk can never yield two chunks of ≥ minChunk.
	if cs := Chunks(15, 8); len(cs) != 1 || cs[0] != [2]int{0, 15} {
		t.Fatalf("Chunks(15, 8) = %v, want one full chunk", cs)
	}
	runtime.GOMAXPROCS(1)
	if cs := Chunks(1000, 1); len(cs) != 1 {
		t.Fatalf("Chunks with 1 worker = %v, want one chunk", cs)
	}
}
