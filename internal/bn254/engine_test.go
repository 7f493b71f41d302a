package bn254

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// Shared fixtures for the differential tests of the pairing entry
// points. Pair, MultiPair, PairBatch, PairingTable.Pair,
// PairTableBatch and MultiPairMixed all run the one Miller-loop engine
// (millerInto), so comparing one entry point with another would check
// the engine against itself. They are checked against PairReference
// instead, through bilinearity: every test input is p = [a]g1,
// q = [b]g2 with known a and b, and e(p, q) = PairReference(g1, g2)^(a·b).
// The reference shares no Miller-loop or final-exponentiation code
// with the engine, and one GT exponentiation per expected value keeps
// hundreds of checks cheaper than a few reference pairings each.

var refGen = sync.OnceValue(func() *GT {
	return PairReference(G1Generator(), G2Generator())
})

// refPair returns e([a]g1, [b]g2) computed from PairReference.
func refPair(a, b *big.Int) *GT {
	ab := new(big.Int).Mul(a, b)
	ab.Mod(ab, Order())
	return new(GT).Exp(refGen(), ab)
}

// testPair is a pairing input with its discrete logs: p = [a]g1 and
// q = [b]g2. A zero scalar makes that side the identity.
type testPair struct {
	p    *G1
	q    *G2
	a, b *big.Int
}

func randTestPair(t *testing.T) testPair {
	t.Helper()
	p, a, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, b, err := RandG2(nil)
	if err != nil {
		t.Fatal(err)
	}
	return testPair{p: p, q: q, a: a, b: b}
}

// identityP and identityQ replace one side of tp with the identity.
func (tp testPair) identityP() testPair {
	tp.p, tp.a = NewG1(), new(big.Int)
	return tp
}

func (tp testPair) identityQ() testPair {
	tp.q, tp.b = NewG2(), new(big.Int)
	return tp
}

func (tp testPair) want() *GT { return refPair(tp.a, tp.b) }

// wantProduct is Π e(pᵢ, qᵢ) from the reference.
func wantProduct(tps []testPair) *GT {
	out := GTOne()
	for _, tp := range tps {
		out.Mul(out, tp.want())
	}
	return out
}

// split returns the two sides of tps as the slices the entry points
// take.
func split(tps []testPair) ([]*G1, []*G2) {
	ps := make([]*G1, len(tps))
	qs := make([]*G2, len(tps))
	for i, tp := range tps {
		ps[i], qs[i] = tp.p, tp.q
	}
	return ps, qs
}

// tables builds one PairingTable per G2 side of tps.
func tables(tps []testPair) []*PairingTable {
	tabs := make([]*PairingTable, len(tps))
	for i, tp := range tps {
		tabs[i] = NewPairingTable(tp.q)
	}
	return tabs
}

// pairCase is one named input of the shared table.
type pairCase struct {
	name  string
	pairs []testPair
}

// pairCases is the input table every entry point runs, with fresh
// random pairs on each call: a single pair and 2–4 pairs, three times
// over — with no identity, with an identity G1 side first, and with
// that plus an identity G2 side last; inputs where every pair has an
// identity side; and 13 pairs, which the chunked entries split into
// three chunks once the caller raises GOMAXPROCS to 4.
func pairCases(t *testing.T) []pairCase {
	t.Helper()
	var cases []pairCase
	for identities := 0; identities < 3; identities++ {
		cases = append(cases, pairCase{name: "single", pairs: []testPair{randTestPair(t)}})
		for n := 2; n <= 4; n++ {
			pairs := make([]testPair, n)
			for j := range pairs {
				pairs[j] = randTestPair(t)
			}
			if identities > 0 {
				pairs[0] = pairs[0].identityP()
			}
			if identities > 1 {
				pairs[n-1] = pairs[n-1].identityQ()
			}
			cases = append(cases, pairCase{name: fmt.Sprintf("%d-pairs-%d-identities", n, identities), pairs: pairs})
		}
	}
	cases = append(cases, pairCase{name: "all-identity", pairs: []testPair{
		randTestPair(t).identityP(), randTestPair(t).identityQ(), randTestPair(t).identityP().identityQ(),
	}})
	pairs := make([]testPair, 13)
	for j := range pairs {
		pairs[j] = randTestPair(t)
	}
	pairs[7] = pairs[7].identityP()
	return append(cases, pairCase{name: "13-chunked", pairs: pairs})
}
