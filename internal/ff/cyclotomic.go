package ff

import "math/big"

// This file implements fast arithmetic for the cyclotomic subgroup
// G_Φ12(p) = {z ∈ Fp12* : z^(p⁴−p²+1) = 1} — the image of the final
// exponentiation, i.e. the subgroup every pairing output (and hence
// every GT element produced by honest parties) lives in. Elements of
// that subgroup are unitary (z·z̄ = 1), so inversion is a conjugation,
// and squaring admits the Granger–Scott shortcut. None of these
// routines are safe on arbitrary Fp12 elements; callers must check
// IsCyclotomic (or know the provenance of the element) before taking
// the fast path.

// IsUnitary reports whether z has norm one over Fp6, i.e. z·z̄ = 1.
// This is necessary but NOT sufficient for membership in the
// cyclotomic subgroup — use IsCyclotomic to gate Granger–Scott
// squaring.
func (z *Fp12) IsUnitary() bool {
	var t Fp12
	t.Conjugate(z)
	t.Mul(&t, z)
	return t.IsOne()
}

// IsCyclotomic reports whether z lies in the cyclotomic subgroup
// G_Φ12(p), i.e. z^(p⁴−p²+1) = 1, by checking z^(p⁴)·z = z^(p²). The
// check costs two Frobenius maps and one multiplication — cheap
// relative to an exponentiation, so Exp-style routines can afford it
// as a gate for the fast path.
func (z *Fp12) IsCyclotomic() bool {
	if z.IsZero() {
		return false
	}
	var p2, p4 Fp12
	p2.FrobeniusP2(z)
	p4.FrobeniusP2(&p2)
	p4.Mul(&p4, z)
	return p4.Equal(&p2)
}

// fp4Square computes (a + b·W)² = (a² + ξ·b²) + (2ab)·W in
// Fp4 = Fp2[W]/(W²−ξ), writing the real part to r0 and the W part to
// r1. Costs three Fp2 squarings.
func fp4Square(r0, r1, a, b *Fp2) {
	var t0, t1, s Fp2
	t0.Square(a)
	t1.Square(b)
	s.Add(a, b)
	s.Square(&s)
	r1.Sub(&s, &t0)
	r1.Sub(r1, &t1) // 2ab
	t1.MulXi(&t1)
	r0.Add(&t0, &t1) // a² + ξb²
}

// CyclotomicSquare sets z = x² for x in the cyclotomic subgroup
// (Granger–Scott squaring, nine Fp2 squarings versus eighteen Fp2
// multiplications for a generic square). The result is undefined when
// x is outside G_Φ12 — use Square for arbitrary elements.
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	// Write x = Σ g_j·w^j and group the coefficients into three Fp4
	// pieces A = g0 + g3·W, B = g1 + g4·W, C = g2 + g5·W with W = w³
	// (so W² = w⁶ = ξ), viewing Fp12 = Fp4[w]/(w³−W). For cyclotomic x,
	// Granger–Scott's α² = (3a²−2ā) + (3Wc²+2b̄)w + (3b²−2c̄)w² gives
	//   g0' = 3·Re(A²) − 2g0,   g3' = 3·Im(A²) + 2g3,
	//   g1' = 3·ξ·Im(C²) + 2g1, g4' = 3·Re(C²) − 2g4,
	//   g2' = 3·Re(B²) − 2g2,   g5' = 3·Im(B²) + 2g5.
	g0, g1, g2 := &x.C0.C0, &x.C1.C0, &x.C0.C1
	g3, g4, g5 := &x.C1.C1, &x.C0.C2, &x.C1.C2

	var a0, a1, b0, b1, c0, c1 Fp2
	fp4Square(&a0, &a1, g0, g3)
	fp4Square(&b0, &b1, g1, g4)
	fp4Square(&c0, &c1, g2, g5)

	// r = 3·s − 2·g  (for the C0-side coefficients)
	lower := func(r *Fp2, s, g *Fp2) {
		r.Sub(s, g)
		r.Double(r)
		r.Add(r, s)
	}
	// r = 3·s + 2·g  (for the C1-side coefficients)
	upper := func(r *Fp2, s, g *Fp2) {
		r.Add(s, g)
		r.Double(r)
		r.Add(r, s)
	}

	var out Fp12
	lower(&out.C0.C0, &a0, g0)
	upper(&out.C1.C1, &a1, g3)
	c1.MulXi(&c1)
	upper(&out.C1.C0, &c1, g1)
	lower(&out.C0.C2, &c0, g4)
	lower(&out.C0.C1, &b0, g2)
	upper(&out.C1.C2, &b1, g5)
	return z.Set(&out)
}

// WNAF returns the width-w non-adjacent form of the non-negative
// integer e, least significant digit first. Digits are zero or odd in
// (−2^(w−1), 2^(w−1)); w must be in [2, 8]. Scalar-multiplication and
// exponentiation routines share this recoding.
func WNAF(e *big.Int, w uint) []int8 {
	if w < 2 || w > 8 {
		panic("ff: WNAF width out of range")
	}
	if e.Sign() < 0 {
		panic("ff: WNAF of negative integer")
	}
	mod := int64(1) << w
	mask := big.NewInt(mod - 1)
	n := new(big.Int).Set(e)
	digits := make([]int8, 0, e.BitLen()+1)
	var low big.Int
	for n.Sign() > 0 {
		var d int64
		if n.Bit(0) == 1 {
			d = low.And(n, mask).Int64()
			if d >= mod/2 {
				d -= mod
			}
			n.Sub(n, big.NewInt(d))
		}
		digits = append(digits, int8(d))
		n.Rsh(n, 1)
	}
	return digits
}

// ExpCyclotomic sets z = x^e for x in the cyclotomic subgroup, using
// width-4 wNAF with Granger–Scott squarings and conjugation in place
// of inversion. Negative exponents conjugate. The result is undefined
// when x is outside G_Φ12 (check IsCyclotomic) — use Exp for arbitrary
// elements.
func (z *Fp12) ExpCyclotomic(x *Fp12, e *big.Int) *Fp12 {
	if e.Sign() == 0 {
		return z.SetOne()
	}
	if l, ok := limbsFromBig(e); ok {
		return z.ExpCyclotomicLimbs(x, &l)
	}
	var base Fp12
	base.Set(x)
	exp := e
	if e.Sign() < 0 {
		base.Conjugate(&base)
		exp = new(big.Int).Neg(e)
	}
	digits := WNAF(exp, 4)
	return z.expCyclotomicDigits(&base, digits)
}

// fp6MulSparse01 sets z = x·(y0 + y1·v) — a multiplication by an Fp6
// element whose v² coefficient is zero — in five Fp2 multiplications.
func fp6MulSparse01(z, x *Fp6, y0, y1 *Fp2) {
	var t0, t1, u, s Fp2
	t0.Mul(&x.C0, y0)
	t1.Mul(&x.C1, y1)
	u.Add(&x.C0, &x.C1)
	s.Add(y0, y1)
	u.Mul(&u, &s) // (x0+x1)(y0+y1)

	var c0, c1, c2, m Fp2
	c1.Sub(&u, &t0)
	c1.Sub(&c1, &t1) // x0·y1 + x1·y0
	m.Mul(&x.C2, y1)
	c0.MulXi(&m)
	c0.Add(&c0, &t0) // x0·y0 + ξ·x2·y1
	m.Mul(&x.C2, y0)
	c2.Add(&t1, &m) // x1·y1 + x2·y0

	z.C0.Set(&c0)
	z.C1.Set(&c1)
	z.C2.Set(&c2)
}

// MulLine01 sets z = x·ℓ for a monic line ℓ = 1 + e1·w + e3·w³, the
// sparse shape of the pairing's Miller-loop lines. Writing
// ℓ = B0 + B1·w with B0 = 1, the A0·B0 product is a copy, leaving ten
// Fp2 multiplications against eighteen for a generic Mul. The Miller
// loop normalizes every line to this shape by dividing out the P.y
// constant (an Fp-subfield factor the final exponentiation kills).
func (z *Fp12) MulLine01(x *Fp12, e1, e3 *Fp2) *Fp12 {
	// ℓ = B0 + B1·w with B0 = (1, 0, 0) and B1 = (e1, e3, 0) in Fp6.
	var t0, t1 Fp6
	t0.Set(&x.C0) // A0·B0 = A0
	fp6MulSparse01(&t1, &x.C1, e1, e3)

	// r1 = (A0+A1)(B0+B1) − t0 − t1, with B0+B1 = (1+e1, e3, 0).
	var s Fp6
	s.Add(&x.C0, &x.C1)
	var y0 Fp2
	y0.SetOne()
	y0.Add(&y0, e1)
	var r1 Fp6
	fp6MulSparse01(&r1, &s, &y0, e3)
	r1.Sub(&r1, &t0)
	r1.Sub(&r1, &t1)

	// r0 = t0 + v·t1.
	var r0 Fp6
	r0.MulByV(&t1)
	r0.Add(&r0, &t0)

	z.C0.Set(&r0)
	z.C1.Set(&r1)
	return z
}
