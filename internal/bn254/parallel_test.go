package bn254

import (
	"runtime"
	"testing"
)

// Differential tests for the chunk-parallel multi-pairings. The host
// running CI may have a single CPU, so each test raises GOMAXPROCS
// above the core count: par.Chunks reads GOMAXPROCS, the chunked
// branches trigger, and the goroutines interleave on however many
// cores exist — which is exactly what `make race` needs to observe.
// The reference is PairReference through bilinearity (engine_test.go).

// TestMultiPairParallelMatchesPairs checks the chunked MultiPair — 12
// pairs splits into 3 lockstep chunks at multiPairParMinChunk=4 —
// against the reference product, including identity pairs that the
// active-filter must skip.
func TestMultiPairParallelMatchesPairs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 12
	pairs := make([]testPair, 0, n+2)
	for i := 0; i < n; i++ {
		pairs = append(pairs, randTestPair(t))
		if i == 5 { // identity on either side contributes 1
			pairs = append(pairs, randTestPair(t).identityP(), randTestPair(t).identityQ())
		}
	}

	ps, qs := split(pairs)
	if !MultiPair(ps, qs).Equal(wantProduct(pairs)) {
		t.Fatal("chunk-parallel MultiPair diverged from Π PairReference")
	}
}

// TestPairBatchParallelMatchesPairs checks the chunked PairBatch
// against the reference at a size that splits.
func TestPairBatchParallelMatchesPairs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 13 // odd size → uneven chunks
	pairs := make([]testPair, n)
	for i := range pairs {
		pairs[i] = randTestPair(t)
	}
	pairs[7] = pairs[7].identityP()

	ps, qs := split(pairs)
	got := PairBatch(ps, qs)
	for i, tp := range pairs {
		if !got[i].Equal(tp.want()) {
			t.Fatalf("index %d: chunk-parallel PairBatch diverged from PairReference", i)
		}
	}
}
