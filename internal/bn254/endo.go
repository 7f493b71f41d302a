package bn254

import (
	"math/big"
	"sync"

	"repro/internal/ff"
	"repro/internal/scalar"
)

// This file implements the curve endomorphisms and the lattice data
// the endomorphism-accelerated scalar multiplications (limbmult.go)
// decompose with:
//
//   - GLV on G1 (Gallant–Lambert–Vanstone 2001): E(Fp) has j-invariant
//     0, so φ(x, y) = (β·x, y) with β a primitive cube root of unity in
//     Fp is an endomorphism acting on the r-order group as φ(P) = [λ]P,
//     λ² + λ + 1 ≡ 0 (mod r). Splitting k ≡ k₀ + k₁λ with
//     |kᵢ| ≈ √r halves the doubling chain.
//   - GLS on G2 (Galbraith–Lin–Scott 2009): the untwist-Frobenius-twist
//     endomorphism ψ(x, y) = (γ₂·x̄, γ₃·ȳ) (γⱼ = ξ^(j(p−1)/6), bar =
//     Fp2 conjugation) acts on the r-order twist subgroup as
//     ψ(Q) = [μ]Q with μ = 6u² = p − r ≡ p (mod r). A 4-dimensional
//     decomposition k ≡ k₀ + k₁μ + k₂μ² + k₃μ³ with |kᵢ| ≈ r^(1/4)
//     quarters the chain.
//
// Every constant is derived from the BN parameter u and verified at
// first use: β and λ by checking φ(G) = [λ]G against the naive
// reference ladder, ψ and μ by checking ψ(G₂) = [μ]G₂ the same way, and
// the lattice bases by scalar.NewLattice's relation check. A lattice
// whose fixed-point decomposition data does not fit the limb widths
// (scalar.Lattice.LimbReady) is refused, since the limb ladders are the
// only scalar-multiplication tier. A derivation that fails its check
// panics — wrong constants must never fail silently. See
// docs/ARCHITECTURE.md for the paper trail behind each constant.
//
// Like the rest of the package none of this is constant-time: the
// decomposition, the wNAF recodings and the interleaved table walks all
// branch on secret scalars.

// g1Endo carries the GLV endomorphism data for G1, derived and verified
// on first use.
var g1Endo struct {
	once   sync.Once
	beta   ff.Fp
	lambda *big.Int
	lat    *scalar.Lattice
}

// g1EndoInit derives β and λ and builds the 2-dimensional GLV lattice.
//
//	λ = 36u³ + 18u² + 6u + 1 is a root of x² + x + 1 (mod r);
//	β ∈ Fp is a primitive cube root of unity, i.e. a root of x² + x + 1
//	  (mod p), computed as (−1 ± √−3)/2.
//
// Both x²+x+1 roots are cube roots of unity; which of the two β
// candidates pairs with λ (rather than λ² = −1−λ) is fixed by testing
// φ(G) = [λ]G on the generator.
func g1EndoInit() {
	r := ff.Order()
	u2 := new(big.Int).Mul(u, u)
	lambda := new(big.Int).Mul(u2, u)
	lambda.Mul(lambda, big.NewInt(36))
	lambda.Add(lambda, new(big.Int).Mul(u2, big.NewInt(18)))
	lambda.Add(lambda, new(big.Int).Mul(u, big.NewInt(6)))
	lambda.Add(lambda, big.NewInt(1))
	lambda.Mod(lambda, r)
	chk := new(big.Int).Mul(lambda, lambda)
	chk.Add(chk, lambda)
	chk.Add(chk, big.NewInt(1))
	if chk.Mod(chk, r).Sign() != 0 {
		panic("bn254: GLV eigenvalue λ does not satisfy λ²+λ+1 ≡ 0 (mod r)")
	}

	p := ff.Modulus()
	s := new(big.Int).ModSqrt(new(big.Int).Mod(big.NewInt(-3), p), p)
	if s == nil {
		panic("bn254: −3 is not a square mod p")
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), p)
	var lG G1
	lG.ScalarMultReference(g1Gen, lambda)
	found := false
	for _, sign := range []int64{1, -1} {
		c := new(big.Int).Mul(s, big.NewInt(sign))
		c.Sub(c, big.NewInt(1))
		c.Mul(c, inv2)
		c.Mod(c, p)
		beta := ff.NewFp(c)
		var phiG G1
		g1Phi(&phiG, g1Gen, beta)
		if phiG.Equal(&lG) {
			g1Endo.beta.Set(beta)
			found = true
			break
		}
	}
	if !found {
		panic("bn254: neither cube-root-of-unity candidate satisfies φ(G) = [λ]G")
	}
	g1Endo.lambda = lambda

	basis, err := scalar.ReducedBasis2(r, lambda)
	if err != nil {
		panic("bn254: GLV basis reduction failed: " + err.Error())
	}
	lat, err := scalar.NewLattice(r, lambda, basis)
	if err != nil {
		panic("bn254: GLV lattice rejected: " + err.Error())
	}
	if !lat.LimbReady() {
		panic("bn254: GLV lattice does not fit the limb decomposition")
	}
	g1Endo.lat = lat
}

// g1Phi sets out = φ(a) = (β·x, y), the cube-root-of-unity endomorphism.
func g1Phi(out, a *G1, beta *ff.Fp) {
	if a.inf {
		out.SetInfinity()
		return
	}
	out.x.Mul(&a.x, beta)
	out.y.Set(&a.y)
	out.inf = false
}

// g2Endo carries the GLS endomorphism data for G2, derived and verified
// on first use.
var g2Endo struct {
	once           sync.Once
	gamma2, gamma3 ff.Fp2
	mu             *big.Int
	lat            *scalar.Lattice
}

// g2EndoInit derives the ψ coefficients and the 4-dimensional GLS
// lattice. μ = 6u² = p − r is the ψ eigenvalue (p ≡ 6u² mod r since
// p − r = 6u² for BN curves); the lattice basis is the Galbraith–Scott
// degree-4 basis with entries O(u).
func g2EndoInit() {
	r := ff.Order()
	mu := new(big.Int).Mul(u, u)
	mu.Mul(mu, big.NewInt(6))
	if diff := new(big.Int).Sub(ff.Modulus(), r); diff.Cmp(mu) != 0 {
		panic("bn254: p − r ≠ 6u²")
	}
	g2Endo.gamma2.Set(ff.FrobeniusGamma(2))
	g2Endo.gamma3.Set(ff.FrobeniusGamma(3))
	g2Endo.mu = mu

	// Verify ψ(G₂) = [μ]G₂ on the generator before trusting ψ anywhere.
	gen := G2Generator()
	var psiG, muG G2
	g2Psi(&psiG, gen)
	muG.ScalarMultReference(gen, mu)
	if !psiG.Equal(&muG) {
		panic("bn254: ψ(G₂) ≠ [6u²]G₂ — untwist-Frobenius-twist coefficients wrong")
	}

	// Galbraith–Scott basis rows (v₀,v₁,v₂,v₃) with Σ vⱼμʲ ≡ 0 (mod r);
	// NewLattice re-verifies each row against (r, μ).
	mk := func(cs ...[2]int64) []*big.Int {
		row := make([]*big.Int, len(cs))
		for i, c := range cs {
			v := new(big.Int).Mul(big.NewInt(c[0]), u)
			row[i] = v.Add(v, big.NewInt(c[1]))
		}
		return row
	}
	basis := [][]*big.Int{
		mk([2]int64{1, 1}, [2]int64{1, 0}, [2]int64{1, 0}, [2]int64{-2, 0}),
		mk([2]int64{2, 1}, [2]int64{-1, 0}, [2]int64{-1, -1}, [2]int64{-1, 0}),
		mk([2]int64{2, 0}, [2]int64{2, 1}, [2]int64{2, 1}, [2]int64{2, 1}),
		mk([2]int64{1, -1}, [2]int64{4, 2}, [2]int64{-2, 1}, [2]int64{1, -1}),
	}
	lat, err := scalar.NewLattice(r, mu, basis)
	if err != nil {
		panic("bn254: GLS lattice rejected: " + err.Error())
	}
	if !lat.LimbReady() {
		panic("bn254: GLS lattice does not fit the limb decomposition")
	}
	g2Endo.lat = lat
}

// g2Psi sets out = ψ(a) = (γ₂·x̄, γ₃·ȳ), the untwist-Frobenius-twist
// endomorphism. Valid for every point of E'(Fp2), not only the
// r-subgroup (the subgroup check depends on that).
func g2Psi(out, a *G2) {
	if a.inf {
		out.SetInfinity()
		return
	}
	var x, y ff.Fp2
	x.Conjugate(&a.x)
	x.Mul(&x, &g2Endo.gamma2)
	y.Conjugate(&a.y)
	y.Mul(&y, &g2Endo.gamma3)
	out.x.Set(&x)
	out.y.Set(&y)
	out.inf = false
}
