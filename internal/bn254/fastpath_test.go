package bn254

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"testing"

	"repro/internal/ff"
)

// randScalar draws a uniform scalar below 2^bits.
func randScalarBits(t *testing.T, bits uint) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), bits))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestG1ScalarMultMatchesReference(t *testing.T) {
	for i := 0; i < 100; i++ {
		a, _, err := RandG1(nil)
		if err != nil {
			t.Fatal(err)
		}
		k := randScalarBits(t, 256) // includes values > r
		if i%5 == 1 {
			k.Neg(k)
		}
		if i%11 == 0 {
			k.SetInt64(int64(i % 4)) // small scalars 0..3
		}
		var fast, slow G1
		fast.ScalarMult(a, k)
		slow.ScalarMultReference(a, k)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: ScalarMult != ScalarMultReference for k=%v", i, k)
		}
		if !fast.IsOnCurve() {
			t.Fatalf("iteration %d: result off curve", i)
		}
	}
}

func TestG2ScalarMultMatchesReference(t *testing.T) {
	for i := 0; i < 100; i++ {
		a, _, err := RandG2(nil)
		if err != nil {
			t.Fatal(err)
		}
		k := randScalarBits(t, 256) // includes values > r (reduced mod r)
		if i%5 == 1 {
			k.Neg(k)
		}
		if i%11 == 0 {
			k.SetInt64(int64(i%4) - 1) // −1, 0, 1, 2
		}
		var fast, slow G2
		fast.ScalarMult(a, k)
		slow.ScalarMultReference(a, k)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: ScalarMult != ScalarMultReference for k=%v", i, k)
		}
		if !fast.IsOnTwist() {
			t.Fatalf("iteration %d: result off twist", i)
		}
	}
}

// Cofactor clearing in HashToG2 runs through the internal raw-scalar
// path (g2ScalarMultRaw), not the mod-r public API; pin that hashing
// still lands in the r-subgroup with GLS ScalarMult in place.
func TestG2ScalarMultCofactorClearing(t *testing.T) {
	pt := HashToG2("fastpath-cofactor-test", []byte("msg"))
	if pt.IsInfinity() || !pt.IsInSubgroup() {
		t.Fatal("HashToG2 broken under fast ScalarMult")
	}
}

func TestG1ScalarBaseMultMatchesReference(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := randScalarBits(t, 256)
		if i%5 == 1 {
			k.Neg(k)
		}
		var fast, slow G1
		fast.ScalarBaseMult(k)
		slow.ScalarBaseMultReference(k)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: ScalarBaseMult != reference for k=%v", i, k)
		}
	}
}

func TestG2ScalarBaseMultMatchesReference(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := randScalarBits(t, 256)
		if i%5 == 1 {
			k.Neg(k)
		}
		var fast, slow G2
		fast.ScalarBaseMult(k)
		slow.ScalarBaseMultReference(k)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: ScalarBaseMult != reference for k=%v", i, k)
		}
	}
}

// TestG2ScalarBaseMultEdgeScalars mirrors TestG1ScalarMultReducesModOrder
// for the G2 fixed-base path: k = 0, k = r, and k > r must behave as
// multiplication by k mod r (valid because the generator has order r).
func TestG2ScalarBaseMultEdgeScalars(t *testing.T) {
	r := ff.Order()

	var z G2
	z.ScalarBaseMult(big.NewInt(0))
	if !z.IsInfinity() {
		t.Fatal("[0]·G2 must be the identity")
	}
	z.ScalarBaseMult(r)
	if !z.IsInfinity() {
		t.Fatal("[r]·G2 must be the identity")
	}

	k := randScalarBits(t, 200)
	var big1, big2 G2
	big1.ScalarBaseMult(new(big.Int).Add(r, k)) // r + k ≡ k
	big2.ScalarBaseMult(k)
	if !big1.Equal(&big2) {
		t.Fatal("[r+k]·G2 must equal [k]·G2")
	}

	var neg, neg2 G2
	neg.ScalarBaseMult(new(big.Int).Neg(k)) // −k ≡ r−k
	neg2.ScalarBaseMult(new(big.Int).Sub(r, k))
	if !neg.Equal(&neg2) {
		t.Fatal("[−k]·G2 must equal [r−k]·G2")
	}
}

func TestG1MultiScalarMultMatchesNaive(t *testing.T) {
	for i := 0; i < 100; i++ {
		n := 1 + i%6
		points := make([]*G1, n)
		scalars := make([]*big.Int, n)
		for j := range points {
			p, _, err := RandG1(nil)
			if err != nil {
				t.Fatal(err)
			}
			points[j] = p
			scalars[j] = randScalarBits(t, 256)
			if (i+j)%7 == 0 {
				scalars[j].SetInt64(0)
			}
			if (i+j)%9 == 0 {
				points[j] = NewG1() // identity input
			}
		}
		got := G1MultiScalarMult(points, scalars)
		want := NewG1()
		var term G1
		for j := range points {
			term.ScalarMultReference(points[j], scalars[j])
			want.Add(want, &term)
		}
		if !got.Equal(want) {
			t.Fatalf("iteration %d: G1MultiScalarMult mismatch (n=%d)", i, n)
		}
	}
	if !G1MultiScalarMult(nil, nil).IsInfinity() {
		t.Fatal("empty MSM must be the identity")
	}
}

func TestG2MultiScalarMultMatchesNaive(t *testing.T) {
	for i := 0; i < 100; i++ {
		n := 1 + i%6
		points := make([]*G2, n)
		scalars := make([]*big.Int, n)
		for j := range points {
			p, _, err := RandG2(nil)
			if err != nil {
				t.Fatal(err)
			}
			points[j] = p
			scalars[j] = randScalarBits(t, 256)
			if (i+j)%5 == 0 {
				scalars[j].Neg(scalars[j]) // refresh protocols use −sᵢ
			}
			if (i+j)%7 == 0 {
				scalars[j].SetInt64(0)
			}
		}
		got := G2MultiScalarMult(points, scalars)
		want := NewG2()
		var term G2
		for j := range points {
			term.ScalarMultReference(points[j], scalars[j])
			want.Add(want, &term)
		}
		if !got.Equal(want) {
			t.Fatalf("iteration %d: G2MultiScalarMult mismatch (n=%d)", i, n)
		}
	}
}

func TestGTMultiExpMatchesNaive(t *testing.T) {
	for i := 0; i < 100; i++ {
		n := 1 + i%5
		bases := make([]*GT, n)
		exps := make([]*big.Int, n)
		for j := range bases {
			g, err := RandGT(nil)
			if err != nil {
				t.Fatal(err)
			}
			bases[j] = g
			exps[j] = randScalarBits(t, 256)
			if (i+j)%5 == 0 {
				exps[j].Neg(exps[j])
			}
			if (i+j)%7 == 0 {
				exps[j].SetInt64(0)
			}
		}
		got := GTMultiExp(bases, exps)
		want := GTOne()
		var term GT
		for j := range bases {
			term.Exp(bases[j], exps[j])
			want.Mul(want, &term)
		}
		if !got.Equal(want) {
			t.Fatalf("iteration %d: GTMultiExp mismatch (n=%d)", i, n)
		}
	}
	if !GTMultiExp(nil, nil).IsOne() {
		t.Fatal("empty GTMultiExp must be 1")
	}
}

// GTMultiExp must stay correct when a base is outside the cyclotomic
// subgroup (possible via SetBytes, which skips subgroup validation).
func TestGTMultiExpNonCyclotomicBase(t *testing.T) {
	raw, err := ff.RandFp12(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var rogue GT
	if _, err := rogue.SetBytes(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	honest, err := RandGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	bases := []*GT{&rogue, honest}
	exps := []*big.Int{randScalarBits(t, 254), randScalarBits(t, 254)}
	got := GTMultiExp(bases, exps)
	want := GTOne()
	var term GT
	for j := range bases {
		term.Exp(bases[j], exps[j])
		want.Mul(want, &term)
	}
	if !got.Equal(want) {
		t.Fatal("GTMultiExp wrong with non-cyclotomic base")
	}
}

func TestGTExpNonCyclotomicBase(t *testing.T) {
	raw, err := ff.RandFp12(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var rogue GT
	if _, err := rogue.SetBytes(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	k := randScalarBits(t, 254)
	var got GT
	got.Exp(&rogue, k)
	// Generic Fp12 exponentiation with the reduced exponent is ground truth.
	var want ff.Fp12
	want.Exp(&rogue.v, new(big.Int).Mod(k, ff.Order()))
	if !got.v.Equal(&want) {
		t.Fatal("GT.Exp wrong on non-cyclotomic element")
	}
}

func TestMultiPairMatchesPairProduct(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range pairCases(t) {
		ps, qs := split(c.pairs)
		if !MultiPair(ps, qs).Equal(wantProduct(c.pairs)) {
			t.Fatalf("%s: MultiPair != Π PairReference", c.name)
		}
	}
	if !MultiPair(nil, nil).IsOne() {
		t.Fatal("empty MultiPair must be 1")
	}
}

// TestPairBatchMatchesPair checks PairBatch, and Pair on the same
// inputs, pair by pair against the reference.
func TestPairBatchMatchesPair(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range pairCases(t) {
		ps, qs := split(c.pairs)
		got := PairBatch(ps, qs)
		for j, tp := range c.pairs {
			want := tp.want()
			if !got[j].Equal(want) {
				t.Fatalf("%s: PairBatch[%d] != PairReference", c.name, j)
			}
			if !Pair(tp.p, tp.q).Equal(want) {
				t.Fatalf("%s: Pair on pair %d != PairReference", c.name, j)
			}
		}
	}
	if len(PairBatch(nil, nil)) != 0 {
		t.Fatal("empty PairBatch must return no values")
	}
}

// MultiPair with a negated G1 point divides — the pattern GT-side
// decryption uses for e(A,M)⁻¹.
func TestMultiPairDivision(t *testing.T) {
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
	got := MultiPair([]*G1{p, &negP}, []*G2{q, q})
	if !got.IsOne() {
		t.Fatal("e(P,Q)·e(−P,Q) must be 1")
	}
}
