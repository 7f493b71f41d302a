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
// The reference is a loop of independent Pair calls.

// TestMultiPairParallelMatchesPairs checks the chunked MultiPair — 12
// pairs splits into 3 lockstep chunks at multiPairParMinChunk=4 —
// against the product of independent Pair calls, including identity
// pairs that the active-filter must skip.
func TestMultiPairParallelMatchesPairs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 12
	ps := make([]*G1, 0, n+2)
	qs := make([]*G2, 0, n+2)
	for i := 0; i < n; i++ {
		ps = append(ps, new(G1).ScalarBaseMult(randScalar(t)))
		qs = append(qs, new(G2).ScalarBaseMult(randScalar(t)))
		if i == 5 { // identity on either side contributes 1
			ps = append(ps, new(G1))
			qs = append(qs, new(G2).ScalarBaseMult(randScalar(t)))
			ps = append(ps, new(G1).ScalarBaseMult(randScalar(t)))
			qs = append(qs, new(G2))
		}
	}

	want := GTOne()
	for i := range ps {
		want.Mul(want, Pair(ps[i], qs[i]))
	}
	got := MultiPair(ps, qs)
	if !got.Equal(want) {
		t.Fatalf("chunk-parallel MultiPair diverged from Π Pair: %v != %v", got, want)
	}
}

// TestPairBatchParallelMatchesPairs checks the chunked PairBatch
// against per-pair Pair calls at a size that splits.
func TestPairBatchParallelMatchesPairs(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 13 // odd size → uneven chunks
	ps := make([]*G1, n)
	qs := make([]*G2, n)
	for i := 0; i < n; i++ {
		if i == 7 {
			ps[i] = new(G1)
			qs[i] = new(G2).ScalarBaseMult(randScalar(t))
			continue
		}
		ps[i] = new(G1).ScalarBaseMult(randScalar(t))
		qs[i] = new(G2).ScalarBaseMult(randScalar(t))
	}

	got := PairBatch(ps, qs)
	for i := range ps {
		want := Pair(ps[i], qs[i])
		if !got[i].Equal(want) {
			t.Fatalf("index %d: chunk-parallel PairBatch diverged from Pair", i)
		}
	}
}
