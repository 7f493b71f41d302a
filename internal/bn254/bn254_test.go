package bn254

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/ff"
)

func randScalar(t *testing.T) *big.Int {
	t.Helper()
	k, err := rand.Int(rand.Reader, Order())
	if err != nil {
		t.Fatalf("rand scalar: %v", err)
	}
	return k
}

func TestG1GeneratorProperties(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("generator not on curve")
	}
	var o G1
	o.ScalarMult(g, Order())
	if !o.IsInfinity() {
		t.Fatal("[r]g ≠ ∞; generator order wrong")
	}
}

func TestG1GroupLaws(t *testing.T) {
	g := G1Generator()
	a, b := randScalar(t), randScalar(t)
	var pa, pb, sum, direct G1
	pa.ScalarMult(g, a)
	pb.ScalarMult(g, b)
	sum.Add(&pa, &pb)
	direct.ScalarMult(g, new(big.Int).Add(a, b))
	if !sum.Equal(&direct) {
		t.Fatal("[a]g + [b]g ≠ [a+b]g")
	}

	// Neg and identity.
	var neg, zero G1
	neg.Neg(&pa)
	zero.Add(&pa, &neg)
	if !zero.IsInfinity() {
		t.Fatal("P + (−P) ≠ ∞")
	}
	var same G1
	same.Add(&pa, NewG1())
	if !same.Equal(&pa) {
		t.Fatal("P + ∞ ≠ P")
	}

	// Double agrees with Add.
	var d1, d2 G1
	d1.Double(&pa)
	d2.Add(&pa, &pa)
	if !d1.Equal(&d2) {
		t.Fatal("Double ≠ Add(P,P)")
	}
}

func TestG1ScalarMultMatchesNaive(t *testing.T) {
	g := G1Generator()
	k := big.NewInt(1000003)
	var fast G1
	fast.ScalarMult(g, k)
	// Additive split: [1000003]g = [1000000]g + [3]g.
	slow := NewG1()
	var a, b G1
	a.ScalarMult(g, big.NewInt(1000000))
	b.ScalarMult(g, big.NewInt(3))
	slow.Add(&a, &b)
	if !fast.Equal(slow) {
		t.Fatal("scalar mult split mismatch")
	}
}

func TestHashToG1(t *testing.T) {
	h1 := HashToG1("tag", []byte("hello"))
	h2 := HashToG1("tag", []byte("hello"))
	h3 := HashToG1("tag", []byte("world"))
	if !h1.Equal(h2) {
		t.Fatal("HashToG1 not deterministic")
	}
	if h1.Equal(h3) {
		t.Fatal("HashToG1 collision on distinct messages")
	}
	if !h1.IsOnCurve() || h1.IsInfinity() {
		t.Fatal("HashToG1 produced invalid point")
	}
}

func TestG1BytesRoundTrip(t *testing.T) {
	g, _, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back G1
	if _, err := back.SetBytes(g.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("G1 bytes round trip failed")
	}
	var inf G1
	if _, err := inf.SetBytes(NewG1().Bytes()); err != nil || !inf.IsInfinity() {
		t.Fatal("infinity round trip failed")
	}
	// Off-curve rejection.
	bad := g.Bytes()
	bad[len(bad)-1] ^= 1
	if _, err := new(G1).SetBytes(bad); err == nil {
		t.Fatal("SetBytes accepted off-curve point")
	}
}

func TestG2GeneratorProperties(t *testing.T) {
	g := G2Generator()
	if !g.IsOnTwist() {
		t.Fatal("G2 generator not on twist")
	}
	if !g.IsInSubgroup() {
		t.Fatal("G2 generator not in order-r subgroup")
	}
}

func TestG2GroupLaws(t *testing.T) {
	g := G2Generator()
	a, b := randScalar(t), randScalar(t)
	var pa, pb, sum, direct G2
	pa.ScalarMult(g, a)
	pb.ScalarMult(g, b)
	sum.Add(&pa, &pb)
	direct.ScalarMult(g, new(big.Int).Add(a, b))
	if !sum.Equal(&direct) {
		t.Fatal("[a]g + [b]g ≠ [a+b]g in G2")
	}
	var neg, zero G2
	neg.Neg(&pa)
	zero.Add(&pa, &neg)
	if !zero.IsInfinity() {
		t.Fatal("Q + (−Q) ≠ ∞ in G2")
	}
}

func TestHashToG2(t *testing.T) {
	h1 := HashToG2("tag", []byte("a"))
	h2 := HashToG2("tag", []byte("a"))
	if !h1.Equal(h2) {
		t.Fatal("HashToG2 not deterministic")
	}
	if !h1.IsOnTwist() || !h1.IsInSubgroup() {
		t.Fatal("HashToG2 output invalid")
	}
}

func TestG2BytesRoundTrip(t *testing.T) {
	g, _, err := RandG2(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back G2
	if _, err := back.SetBytes(g.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Fatal("G2 bytes round trip failed")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	e := Pair(G1Generator(), G2Generator())
	if e.IsOne() {
		t.Fatal("e(g, g2) = 1; pairing degenerate")
	}
	if !e.IsInSubgroup() {
		t.Fatal("pairing output not in order-r subgroup")
	}
}

func TestPairingBilinear(t *testing.T) {
	g1 := G1Generator()
	g2 := G2Generator()
	a, b := randScalar(t), randScalar(t)
	var pa G1
	pa.ScalarMult(g1, a)
	var qb G2
	qb.ScalarMult(g2, b)

	lhs := Pair(&pa, &qb)
	base := Pair(g1, g2)
	var rhs GT
	rhs.Exp(base, new(big.Int).Mul(a, b))
	if !lhs.Equal(&rhs) {
		t.Fatal("e([a]P, [b]Q) ≠ e(P,Q)^(ab)")
	}

	// Left linearity: e(P+P', Q) = e(P,Q)·e(P',Q).
	h := HashToG1("bilin", []byte("x"))
	var sum G1
	sum.Add(&pa, h)
	l := Pair(&sum, &qb)
	var r GT
	r.Mul(Pair(&pa, &qb), Pair(h, &qb))
	if !l.Equal(&r) {
		t.Fatal("pairing not additive in G1 argument")
	}
}

func TestPairingIdentity(t *testing.T) {
	if !Pair(NewG1(), G2Generator()).IsOne() {
		t.Fatal("e(∞, Q) ≠ 1")
	}
	if !Pair(G1Generator(), NewG2()).IsOne() {
		t.Fatal("e(P, ∞) ≠ 1")
	}
}

func TestPairMatchesReference(t *testing.T) {
	p, _, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := RandG2(nil)
	if err != nil {
		t.Fatal(err)
	}
	fast := Pair(p, q)
	slow := PairReference(p, q)
	if !fast.Equal(slow) {
		t.Fatal("fast pairing disagrees with reference path")
	}
}

func TestGTOps(t *testing.T) {
	a, err := RandGT(nil)
	if err != nil {
		t.Fatal(err)
	}
	var inv, one GT
	inv.Inverse(a)
	one.Mul(a, &inv)
	if !one.IsOne() {
		t.Fatal("GT inverse broken")
	}
	k := randScalar(t)
	var ek GT
	ek.Exp(a, k)
	var back GT
	back.Exp(&ek, new(big.Int).ModInverse(k, Order()))
	if !back.Equal(a) {
		t.Fatal("GT exp/inverse-exp round trip failed")
	}
	var rt GT
	if _, err := rt.SetBytes(a.Bytes()); err != nil || !rt.Equal(a) {
		t.Fatal("GT bytes round trip failed")
	}
}

func TestGTOrderDividesR(t *testing.T) {
	e := Pair(G1Generator(), G2Generator())
	var t1 GT
	t1.Exp(e, ff.Order())
	if !t1.IsOne() {
		t.Fatal("e(g,g2)^r ≠ 1")
	}
}
