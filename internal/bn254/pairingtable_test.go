package bn254

import (
	"math/big"
	"runtime"
	"testing"
)

// TestPairingTableMatchesPair replays tables for several fixed Q
// against ≥100 random G1 arguments and compares with the reference.
func TestPairingTableMatchesPair(t *testing.T) {
	type fixedQ struct {
		q *G2
		b *big.Int
	}
	qs := []fixedQ{{G2Generator(), big.NewInt(1)}}
	for i := 0; i < 3; i++ {
		tp := randTestPair(t)
		qs = append(qs, fixedQ{tp.q, tp.b})
	}
	for qi, fq := range qs {
		tb := NewPairingTable(fq.q)
		for i := 0; i < 30; i++ {
			p, a, err := RandG1(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !tb.Pair(p).Equal(refPair(a, fq.b)) {
				t.Fatalf("table %d iteration %d: PairingTable.Pair != PairReference", qi, i)
			}
		}
		if !tb.Pair(NewG1()).IsOne() {
			t.Fatal("table pairing with G1 identity must be 1")
		}
	}
	// Identity-Q table: every replay is 1, and IsIdentity reports it.
	idTab := NewPairingTable(NewG2())
	if !idTab.IsIdentity() {
		t.Fatal("table from identity must report IsIdentity")
	}
	p, _, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !idTab.Pair(p).IsOne() {
		t.Fatal("identity-Q table must pair to 1")
	}
}

func TestPairTableBatchMatchesPair(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range pairCases(t) {
		ps, _ := split(c.pairs)
		got := PairTableBatch(ps, tables(c.pairs))
		for j, tp := range c.pairs {
			if !got[j].Equal(tp.want()) {
				t.Fatalf("%s: PairTableBatch[%d] != PairReference", c.name, j)
			}
		}
	}
}

// TestMultiPairMixedMatchesProduct checks the mixed cold+table product
// against the reference on every shared input, split three ways: all
// cold, all tables, and the first half cold with the rest as tables.
// Identity pairs land on both sides, and the table side includes
// identity-Q tables.
func TestMultiPairMixedMatchesProduct(t *testing.T) {
	for _, c := range pairCases(t) {
		n := len(c.pairs)
		for _, cut := range []int{n, 0, n / 2} {
			cold, tabbed := c.pairs[:cut], c.pairs[cut:]
			ps, qs := split(cold)
			tps, _ := split(tabbed)
			got := MultiPairMixed(ps, qs, tps, tables(tabbed))
			if !got.Equal(wantProduct(c.pairs)) {
				t.Fatalf("%s: MultiPairMixed mismatch (cold=%d tables=%d)", c.name, cut, n-cut)
			}
		}
	}
	if !MultiPairMixed(nil, nil, nil, nil).IsOne() {
		t.Fatal("empty MultiPairMixed must be 1")
	}
}

// TestMultiPairMixedDivision exercises the e(P,Q)·e(−P,Q) = 1 pattern
// with one leg cold and one leg through a table — the BB-IBE
// decryption shape.
func TestMultiPairMixedDivision(t *testing.T) {
	p, _, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := RandG2(nil)
	if err != nil {
		t.Fatal(err)
	}
	var negP G1
	negP.Neg(p)
	tab := NewPairingTable(q)
	got := MultiPairMixed([]*G1{p}, []*G2{q}, []*G1{&negP}, []*PairingTable{tab})
	if !got.IsOne() {
		t.Fatal("e(P,Q)·e(−P,Q) must be 1 in mixed form")
	}
}
