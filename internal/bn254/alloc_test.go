//go:build !race

package bn254

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/scalar"
)

// Allocation regression tests for the curve and pairing hot paths,
// running as part of the ordinary `go test ./...` gate (like the ff
// twins in internal/ff/alloc_test.go). Since the limb tier landed the
// steady-state budgets are exact: scalar multiplication and GT
// exponentiation are allocation-free, pairings allocate only the
// returned *GT. A change that silently reroutes a hot path through
// big.Int (tens to thousands of allocations per op) fails here
// immediately, rather than in the opt-in bench-smoke gate. The file is excluded under the race
// detector, whose instrumentation inflates allocation counts.

func allocTestPoints(t *testing.T) (*G1, *G2, *big.Int) {
	t.Helper()
	p, _, err := RandG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := RandG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	k, err := scalar.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, q, k
}

func TestScalarMultAllocFree(t *testing.T) {
	p, q, k := allocTestPoints(t)
	var zp G1
	var zq G2
	if n := testing.AllocsPerRun(10, func() { zp.ScalarMult(p, k) }); n != 0 {
		t.Fatalf("G1.ScalarMult allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { zq.ScalarMult(q, k) }); n != 0 {
		t.Fatalf("G2.ScalarMult allocates %v/op, want 0", n)
	}
	zp.ScalarBaseMult(k) // warm the fixed-base tables
	zq.ScalarBaseMult(k)
	if n := testing.AllocsPerRun(10, func() { zp.ScalarBaseMult(k) }); n != 0 {
		t.Fatalf("G1.ScalarBaseMult allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { zq.ScalarBaseMult(k) }); n != 0 {
		t.Fatalf("G2.ScalarBaseMult allocates %v/op, want 0", n)
	}
}

func TestPairAlloc(t *testing.T) {
	p, q, _ := allocTestPoints(t)
	// The single allocation is the returned *GT; the Miller loop and
	// final exponentiation themselves are allocation-free.
	if n := testing.AllocsPerRun(5, func() { Pair(p, q) }); n > 1 {
		t.Fatalf("Pair allocates %v/op, want ≤ 1 (the returned GT)", n)
	}
	tb := NewPairingTable(q)
	if n := testing.AllocsPerRun(5, func() { tb.Pair(p) }); n > 1 {
		t.Fatalf("PairingTable.Pair allocates %v/op, want ≤ 1 (the returned GT)", n)
	}
}

func TestGTExpAllocFree(t *testing.T) {
	_, _, k := allocTestPoints(t)
	g := GTGenerator()
	var z GT
	if n := testing.AllocsPerRun(5, func() { z.Exp(g, k) }); n != 0 {
		t.Fatalf("GT.Exp allocates %v/op, want 0", n)
	}
}

func allocTestMulti(t *testing.T, n int) ([]*G1, []*G2, []*big.Int) {
	t.Helper()
	g1s := make([]*G1, n)
	g2s := make([]*G2, n)
	ks := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		var err error
		if g1s[i], _, err = RandG1(rand.Reader); err != nil {
			t.Fatal(err)
		}
		if g2s[i], _, err = RandG2(rand.Reader); err != nil {
			t.Fatal(err)
		}
		if ks[i], err = scalar.Rand(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	return g1s, g2s, ks
}

func TestMultiScalarMultAlloc(t *testing.T) {
	g1s, g2s, ks := allocTestMulti(t, 16)
	// Three allocations: the terms slice, the shared flat digit buffer
	// and the returned point. The per-term digit recodings slice into
	// the flat buffer instead of allocating.
	if n := testing.AllocsPerRun(5, func() { G1MultiScalarMult(g1s, ks) }); n > 3 {
		t.Fatalf("G1MultiScalarMult(16) allocates %v/op, want ≤ 3", n)
	}
	if n := testing.AllocsPerRun(5, func() { G2MultiScalarMult(g2s, ks) }); n > 3 {
		t.Fatalf("G2MultiScalarMult(16) allocates %v/op, want ≤ 3", n)
	}
}

func TestMultiExpPippengerAlloc(t *testing.T) {
	g1s, g2s, ks := allocTestMulti(t, 64)
	// Warm the arena pool: the first call per P allocates the arena's
	// backing slices, every later call reuses them.
	G1MultiExpPippenger(g1s, ks)
	G2MultiExpPippenger(g2s, ks)
	// Steady state: the returned point plus whatever the pool hands
	// back; a small budget catches a return to per-call buffers (the
	// pre-arena path cost ~3000 allocs at this size).
	if n := testing.AllocsPerRun(5, func() { G1MultiExpPippenger(g1s, ks) }); n > 8 {
		t.Fatalf("G1MultiExpPippenger(64) allocates %v/op, want ≤ 8", n)
	}
	if n := testing.AllocsPerRun(5, func() { G2MultiExpPippenger(g2s, ks) }); n > 8 {
		t.Fatalf("G2MultiExpPippenger(64) allocates %v/op, want ≤ 8", n)
	}
}
