package bn254

import (
	"math/big"
	mrand "math/rand"
	"testing"

	"repro/internal/ff"
	"repro/internal/scalar"
)

// endoEdgeScalars returns the boundary cases the endomorphism ladders
// and the reference ladder must agree on: 0, 1, r−1, r, r+1 and ±2^i
// across the scalar width.
func endoEdgeScalars() []*big.Int {
	r := ff.Order()
	out := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Set(r),
		new(big.Int).Add(r, big.NewInt(1)),
	}
	for i := 0; i < 260; i += 13 {
		p := new(big.Int).Lsh(big.NewInt(1), uint(i))
		out = append(out, p, new(big.Int).Neg(p))
	}
	return out
}

// TestG1ScalarMultGLVTiers cross-checks the GLV ladder (ScalarMult)
// against the naive ladder (ScalarMultReference) on edge scalars plus
// 100 random ones.
func TestG1ScalarMultGLVTiers(t *testing.T) {
	a, _, err := RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	ks := endoEdgeScalars()
	for i := 0; i < 100; i++ {
		ks = append(ks, randScalarBits(t, 256))
	}
	for _, k := range ks {
		var glv, ref G1
		glv.ScalarMult(a, k)
		ref.ScalarMultReference(a, k)
		if !glv.Equal(&ref) {
			t.Fatalf("GLV ScalarMult != reference for k=%v", k)
		}
		if !glv.IsOnCurve() {
			t.Fatalf("GLV result off curve for k=%v", k)
		}
	}
}

// TestG2ScalarMultGLSTiers is the G2 counterpart: GLS (ScalarMult) vs
// the naive ladder, on r-subgroup points (the domain the mod-r ladders
// are specified for).
func TestG2ScalarMultGLSTiers(t *testing.T) {
	a, _, err := RandG2(nil)
	if err != nil {
		t.Fatal(err)
	}
	ks := endoEdgeScalars()
	for i := 0; i < 100; i++ {
		ks = append(ks, randScalarBits(t, 256))
	}
	for _, k := range ks {
		var gls, ref G2
		gls.ScalarMult(a, k)
		ref.ScalarMultReference(a, k)
		if !gls.Equal(&ref) {
			t.Fatalf("GLS ScalarMult != reference for k=%v", k)
		}
		if !gls.IsOnTwist() {
			t.Fatalf("GLS result off twist for k=%v", k)
		}
	}
}

// TestG1PhiEigenvalue pins φ(P) = [λ]P on random r-subgroup points, not
// just the generator the init-time self-check uses.
func TestG1PhiEigenvalue(t *testing.T) {
	g1Endo.once.Do(g1EndoInit)
	for i := 0; i < 20; i++ {
		p, _, err := RandG1(nil)
		if err != nil {
			t.Fatal(err)
		}
		var phiP, lP G1
		g1Phi(&phiP, p, &g1Endo.beta)
		lP.ScalarMultReference(p, g1Endo.lambda)
		if !phiP.Equal(&lP) {
			t.Fatalf("iteration %d: φ(P) != [λ]P", i)
		}
	}
}

// TestG2PsiEigenvalue pins ψ(Q) = [6u²]Q on random r-subgroup points.
func TestG2PsiEigenvalue(t *testing.T) {
	g2Endo.once.Do(g2EndoInit)
	for i := 0; i < 20; i++ {
		q, _, err := RandG2(nil)
		if err != nil {
			t.Fatal(err)
		}
		var psiQ, muQ G2
		g2Psi(&psiQ, q)
		muQ.ScalarMultReference(q, g2Endo.mu)
		if !psiQ.Equal(&muQ) {
			t.Fatalf("iteration %d: ψ(Q) != [6u²]Q", i)
		}
	}
}

// nonSubgroupTwistPoint finds a point on E'(Fp2) outside the r-subgroup
// (the twist's cofactor is 2p−r, so a random curve point is outside
// with overwhelming probability; verified via the reference check).
func nonSubgroupTwistPoint(t *testing.T, seed string) *G2 {
	t.Helper()
	for ctr := uint32(0); ctr < 1000; ctr++ {
		var x ff.Fp2
		x.C0.Set(hashToFp(seed, nil, ctr, 0))
		x.C1.Set(hashToFp(seed, nil, ctr, 1))
		var rhs ff.Fp2
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, twistB)
		var y ff.Fp2
		if _, ok := y.Sqrt(&rhs); !ok {
			continue
		}
		cand := &G2{x: x, y: y}
		if !cand.IsOnTwist() {
			t.Fatal("constructed point off twist")
		}
		if !cand.IsInSubgroupReference() {
			return cand
		}
	}
	t.Fatal("no non-subgroup twist point found")
	return nil
}

// TestG2IsInSubgroupMatchesReference differentially tests the fast
// ψ-relation subgroup check against the definitional [r]z = O check on
// both members and non-members.
func TestG2IsInSubgroupMatchesReference(t *testing.T) {
	// Members: random subgroup points and the identity.
	if !NewG2().IsInSubgroup() || !NewG2().IsInSubgroupReference() {
		t.Fatal("identity must pass both subgroup checks")
	}
	for i := 0; i < 10; i++ {
		q, _, err := RandG2(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !q.IsInSubgroup() {
			t.Fatalf("iteration %d: fast check rejects subgroup point", i)
		}
		if !q.IsInSubgroupReference() {
			t.Fatalf("iteration %d: reference check rejects subgroup point", i)
		}
	}
	// Non-members: points on the twist with a cofactor component. The
	// helper pre-verifies them against the reference check, so here the
	// fast check must agree they are outside.
	for i := 0; i < 5; i++ {
		bad := nonSubgroupTwistPoint(t, "endo-test-nonmember-"+string(rune('a'+i)))
		if bad.IsInSubgroup() {
			t.Fatalf("iteration %d: fast check accepts non-subgroup point", i)
		}
	}
}

// limbsBig converts a sub-scalar to a signed big.Int.
func limbsBig(s scalar.SubScalar) *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(s.V[i]))
	}
	if s.Neg {
		v.Neg(v)
	}
	return v
}

// TestProductionLatticesDecompose pins the invariant the single limb
// tier rests on: both production lattices are LimbReady, and
// DecomposeInto succeeds on every reduced scalar and recomposes it,
// Σ kᵢ·λⁱ ≡ k (mod r), at the boundaries and on 10,000 seeded random
// scalars per lattice.
func TestProductionLatticesDecompose(t *testing.T) {
	g1Endo.once.Do(g1EndoInit)
	g2Endo.once.Do(g2EndoInit)
	r := ff.Order()
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Rsh(new(big.Int).Sub(r, big.NewInt(1)), 1),
		new(big.Int).Lsh(big.NewInt(1), 253),
	}
	rng := mrand.New(mrand.NewSource(12))
	for i := 0; i < 10000; i++ {
		ks = append(ks, new(big.Int).Rand(rng, r))
	}
	for _, tc := range []struct {
		name string
		lat  *scalar.Lattice
		eig  *big.Int
		dim  int
	}{
		{"GLV", g1Endo.lat, g1Endo.lambda, 2},
		{"GLS", g2Endo.lat, g2Endo.mu, 4},
	} {
		if !tc.lat.LimbReady() {
			t.Fatalf("%s lattice is not LimbReady", tc.name)
		}
		subs := make([]scalar.SubScalar, tc.dim)
		for _, k := range ks {
			e := ff.ReduceScalar(k)
			if !tc.lat.DecomposeInto(&e, subs) {
				t.Fatalf("%s: DecomposeInto failed for k=%v", tc.name, k)
			}
			sum, pow := new(big.Int), big.NewInt(1)
			for _, s := range subs {
				sum.Add(sum, new(big.Int).Mul(limbsBig(s), pow))
				pow.Mul(pow, tc.eig)
			}
			if sum.Sub(sum, k).Mod(sum, r).Sign() != 0 {
				t.Fatalf("%s: decomposition of k=%v does not recompose", tc.name, k)
			}
		}
	}
}

// TestEndoSplitRecomposition checks the split the ladders run on
// recomposes on points: for the DecomposeInto sub-scalars,
// Σ [kᵢ]·ψⁱ(a) = [k]a (φ for G1), evaluated with the reference ladder.
func TestEndoSplitRecomposition(t *testing.T) {
	g1Endo.once.Do(g1EndoInit)
	g2Endo.once.Do(g2EndoInit)
	for i := 0; i < 25; i++ {
		k := new(big.Int).Mod(randScalarBits(t, 256), ff.Order())
		e := ff.ReduceScalar(k)

		a1, _, err := RandG1(nil)
		if err != nil {
			t.Fatal(err)
		}
		var subs1 [2]scalar.SubScalar
		if !g1Endo.lat.DecomposeInto(&e, subs1[:]) {
			t.Fatal("GLV DecomposeInto failed")
		}
		var phiA G1
		g1Phi(&phiA, a1, &g1Endo.beta)
		got1, term1 := NewG1(), new(G1)
		for j, base := range []*G1{a1, &phiA} {
			got1.Add(got1, term1.ScalarMultReference(base, limbsBig(subs1[j])))
		}
		if !got1.Equal(new(G1).ScalarMultReference(a1, k)) {
			t.Fatalf("iteration %d: GLV split does not recompose", i)
		}

		a2, _, err := RandG2(nil)
		if err != nil {
			t.Fatal(err)
		}
		var subs2 [4]scalar.SubScalar
		if !g2Endo.lat.DecomposeInto(&e, subs2[:]) {
			t.Fatal("GLS DecomposeInto failed")
		}
		got2, base, term2 := NewG2(), new(G2).Set(a2), new(G2)
		for j := range subs2 {
			got2.Add(got2, term2.ScalarMultReference(base, limbsBig(subs2[j])))
			g2Psi(base, base)
		}
		if !got2.Equal(new(G2).ScalarMultReference(a2, k)) {
			t.Fatalf("iteration %d: GLS split does not recompose", i)
		}
	}
}
