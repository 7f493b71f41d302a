package bn254

import (
	"math/big"
	"testing"
)

func BenchmarkPair(b *testing.B) {
	p, _, _ := RandG1(nil)
	q, _, _ := RandG2(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkPairReference(b *testing.B) {
	p, _, _ := RandG1(nil)
	q, _, _ := RandG2(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairReference(p, q)
	}
}

// benchScalar returns the fixed scalar the scalar-mult and
// exponentiation benchmarks share.
func benchScalar(tb testing.TB) *big.Int {
	k, ok := new(big.Int).SetString("1234567890123456789012345678901234567890", 10)
	if !ok {
		tb.Fatal("bad benchmark scalar literal")
	}
	return k
}

func BenchmarkG1ScalarMult(b *testing.B) {
	g := G1Generator()
	k := benchScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G1).ScalarMult(g, k)
	}
}

func BenchmarkG2ScalarMult(b *testing.B) {
	g := G2Generator()
	k := benchScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(G2).ScalarMult(g, k)
	}
}

func BenchmarkPairTable(b *testing.B) {
	p, _, _ := RandG1(nil)
	q, _, _ := RandG2(nil)
	tb := NewPairingTable(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Pair(p)
	}
}

func BenchmarkNewPairingTable(b *testing.B) {
	q, _, _ := RandG2(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPairingTable(q)
	}
}

func BenchmarkGTExp(b *testing.B) {
	e := GTGenerator()
	k := benchScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(GT).Exp(e, k)
	}
}

// benchPairs returns n random pairs for the multi-pairing benchmarks.
func benchPairs(n int) ([]*G1, []*G2) {
	ps := make([]*G1, n)
	qs := make([]*G2, n)
	for i := range ps {
		ps[i], _, _ = RandG1(nil)
		qs[i], _, _ = RandG2(nil)
	}
	return ps, qs
}

func BenchmarkMultiPair4(b *testing.B) {
	ps, qs := benchPairs(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiPair(ps, qs)
	}
}

func BenchmarkPairBatch8(b *testing.B) {
	ps, qs := benchPairs(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairBatch(ps, qs)
	}
}

// BenchmarkMultiPairMixed9 is the batch decryption path's per-request
// product: one G1 point against κ+1 = 9 tables.
func BenchmarkMultiPairMixed9(b *testing.B) {
	ps, qs := benchPairs(9)
	tabs := make([]*PairingTable, len(qs))
	for i := range qs {
		ps[i] = ps[0]
		tabs[i] = NewPairingTable(qs[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiPairMixed(nil, nil, ps, tabs)
	}
}
