//go:build !race

package hpske

import (
	"crypto/rand"
	"testing"

	"repro/internal/bn254"
	"repro/internal/group"
)

// Allocation regression test for the §5.2 transport hot path — the
// per-request work P1 does on every decryption — on one ciphertext. The
// budgets leave headroom for par.ForEach's scheduling-dependent
// goroutine allocations on multi-core hosts while still catching a
// return to per-pairing buffer churn (hundreds of allocs per call).
// Excluded under the race detector, which inflates allocation counts.

func TestTransportAllocBudget(t *testing.T) {
	const kappa = 8
	sch, err := New[*bn254.G2](group.G2{}, kappa)
	if err != nil {
		t.Fatal(err)
	}
	key, err := sch.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := sch.G.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sch.Encrypt(rand.Reader, key, msg)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cts := []*Ciphertext[*bn254.G2]{ct}
	tts := PrecomputeTransportMany(cts)
	if n := testing.AllocsPerRun(5, func() { TransportManyPre(nil, a, tts) }); n > 64 {
		t.Fatalf("TransportManyPre(κ=%d) allocates %v/op, budget 64", kappa, n)
	}
	if n := testing.AllocsPerRun(5, func() { TransportMany(nil, a, cts) }); n > 96 {
		t.Fatalf("TransportMany(κ=%d) allocates %v/op, budget 96", kappa, n)
	}
}
