package bn254

import (
	"repro/internal/ff"
)

// Pair computes the ate pairing e(p, q) — a non-degenerate bilinear map
// G1 × G2 → GT. Pairing with the identity on either side yields 1.
//
// The implementation is the ate pairing with Miller-loop length
// t−1 = 6u², lines computed on the twist with Fp2 arithmetic and mapped
// into Fp12 through the untwist ψ(x,y) = (x·w², y·w³), followed by the
// fast Frobenius-decomposed final exponentiation. A structurally
// independent slow path (PairReference) exists for cross-checking.
func Pair(p *G1, q *G2) *GT {
	out := new(GT)
	if p.IsInfinity() || q.IsInfinity() {
		return out.SetOne()
	}
	var f [1]ff.Fp12
	millerInto(f[:], []*G1{p}, []*G2{q}, nil, nil)
	finalExpFastInto(&out.v, &f[0])
	return out
}

// PairReference computes the same pairing via a generic Miller loop over
// E(Fp12) (the curve itself, after untwisting Q) and a final
// exponentiation by the literal exponent (p¹²−1)/r. It shares no line
// arithmetic or Frobenius decomposition with Pair and is used by tests
// and the E10 ablation bench.
func PairReference(p *G1, q *G2) *GT {
	if p.IsInfinity() || q.IsInfinity() {
		return GTOne()
	}
	f := millerLoopGeneric(p, q)
	var out GT
	out.v.Exp(f, finalExpPower)
	return &out
}

// fp2Three is the constant 3 embedded in Fp2, hoisted to package level
// so the Miller-loop step functions do not rebuild it (a big.Int
// allocation) on every doubling.
var fp2Three = func() *ff.Fp2 {
	var t ff.Fp2
	t.SetFp(ff.FpFromInt64(3))
	return &t
}()

// ateSteps is the ate Miller loop's line schedule in emission order:
// one doubling line (false) per bit of 6u² below the top one, each
// preceded by squaring the accumulator, plus an addition line (true)
// after each set bit. Every Miller loop in the package — the engine
// and the table recording chain — walks this one schedule, so table
// line k is the k-th line of every cold loop.
var ateSteps = func() []bool {
	var steps []bool
	for i := ateLoop.BitLen() - 2; i >= 0; i-- {
		steps = append(steps, false)
		if ateLoop.Bit(i) == 1 {
			steps = append(steps, true)
		}
	}
	return steps
}()

// doubleStepDen returns the tangent-line denominator 2y whose inverse
// doubleStepCoeffs consumes — split out so the engine can batch-invert
// the denominators of many lockstep Miller loops at once.
func doubleStepDen(t *G2) ff.Fp2 {
	var den ff.Fp2
	den.Double(&t.y)
	return den
}

// doubleStepCoeffs advances t to 2t and returns the P-independent
// tangent-line coefficients (a, b) with l(P) = P.y + a·P.x·w + b·w³
// (a = −λ, b = λ·tx − ty), given dinv = (2y)⁻¹. This is the piece a
// PairingTable stores. t must not be infinity or 2-torsion.
func doubleStepCoeffs(t *G2, dinv *ff.Fp2) (a, b ff.Fp2) {
	// λ = 3x²/(2y) on the twist.
	var lambda, num ff.Fp2
	num.Square(&t.x)
	num.Mul(&num, fp2Three)
	lambda.Mul(&num, dinv)

	a.Neg(&lambda)
	b.Mul(&lambda, &t.x)
	b.Sub(&b, &t.y)

	// Point update: x' = λ² − 2x; y' = λ(x − x') − y.
	var x3, y3 ff.Fp2
	x3.Square(&lambda)
	var twoX ff.Fp2
	twoX.Double(&t.x)
	x3.Sub(&x3, &twoX)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return a, b
}

// addStepDen returns the chord-line denominator qx − tx whose inverse
// addStepCoeffs consumes.
func addStepDen(t, q *G2) ff.Fp2 {
	var den ff.Fp2
	den.Sub(&q.x, &t.x)
	return den
}

// addStepCoeffs advances t to t+q and returns the P-independent chord
// coefficients (a, b), the addition-step analogue of doubleStepCoeffs
// (a = −λ, b = λ·qx − qy), given dinv = (qx − tx)⁻¹. Requires t ≠ ±q
// and neither infinite.
func addStepCoeffs(t, q *G2, dinv *ff.Fp2) (a, b ff.Fp2) {
	var lambda, num ff.Fp2
	num.Sub(&q.y, &t.y)
	lambda.Mul(&num, dinv)

	a.Neg(&lambda)
	b.Mul(&lambda, &q.x)
	b.Sub(&b, &q.y)

	var x3, y3 ff.Fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &t.x)
	x3.Sub(&x3, &q.x)
	y3.Sub(&t.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &t.y)
	t.x.Set(&x3)
	t.y.Set(&y3)
	return a, b
}

// lineScale holds the G1 argument's monic-line constants x/y and 1/y.
// A line l(P) = P.y + a·P.x·w + b·w³ divided by P.y is the monic
// 1 + a·(P.x/P.y)·w + (b/P.y)·w³, which MulLine01 multiplies in ten
// Fp2 multiplications. The dropped P.y factor lies in the subfield Fp,
// so the final exponentiation's easy part (p⁶−1 is a multiple of p−1)
// erases it. P.y ≠ 0 for every affine G1 point: the curve has prime
// (odd) order, so it carries no 2-torsion.
type lineScale struct {
	xOverY, yInv ff.Fp
}

func (s *lineScale) set(p *G1) {
	s.yInv.InverseVartime(&p.y) // p is a public pairing input
	s.xOverY.Mul(&p.x, &s.yInv)
}

// mulLine sets f = f · l(P)/P.y for the line with coefficients (a, b).
func (s *lineScale) mulLine(f *ff.Fp12, a, b *ff.Fp2) {
	var e1, e3 ff.Fp2
	e1.MulFp(a, &s.xOverY)
	e3.MulFp(b, &s.yInv)
	f.MulLine01(f, &e1, &e3)
}

// scratch returns buf[:n] when n fits the caller's stack array and a
// fresh slice otherwise, so single-pair calls stay allocation-free.
func scratch[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// millerInto is the package's one Miller-loop engine. It runs the ate
// loops of the cold pairs (ps[k], qs[k]) and of the table pairs
// (tps[j], tabs[j]) in lockstep over ateSteps, without the final
// exponentiation:
//
//   - the cold pairs' twist points step together, and each step's line
//     denominators — the loop's only field inversions — are inverted in
//     one batch (Montgomery's trick: one inversion per step instead of
//     one per step per pair);
//   - the table pairs read their stored (a, b) lines, so they do no G2
//     arithmetic at all;
//   - every line is applied in monic form (see lineScale).
//
// With len(fs) == 1 every line goes into fs[0], so fs[0] ends as the
// Miller value of the whole product; otherwise fs holds one
// accumulator per pair, cold pairs first, and len(fs) must be
// len(ps)+len(tps). No input may be the identity, and no table may be
// the identity table: callers filter those out, since they pair to 1.
func millerInto(fs []ff.Fp12, ps []*G1, qs []*G2, tps []*G1, tabs []*PairingTable) {
	nc := len(ps)
	var tBuf [1]G2
	var dBuf [3]ff.Fp2
	var sBuf [1]lineScale
	ts := scratch(tBuf[:], nc)
	d := scratch(dBuf[:], 3*nc)
	dens, invs, prefix := d[:nc], d[nc:2*nc], d[2*nc:]
	scales := scratch(sBuf[:], nc+len(tps))
	for k := range ts {
		ts[k].Set(qs[k])
		scales[k].set(ps[k])
	}
	for j := range tps {
		scales[nc+j].set(tps[j])
	}
	// perPair is 0 when all lines share fs[0] and 1 when pair k owns
	// fs[k].
	perPair := 1
	if len(fs) == 1 {
		perPair = 0
	}
	for i := range fs {
		fs[i].SetOne()
	}

	for line, add := range ateSteps {
		if !add {
			for i := range fs {
				fs[i].Square(&fs[i])
			}
		}
		for k := range ts {
			if add {
				dens[k] = addStepDen(&ts[k], qs[k])
			} else {
				dens[k] = doubleStepDen(&ts[k])
			}
		}
		ff.BatchInverseFp2Into(invs, dens, prefix)
		for k := range ts {
			var a, b ff.Fp2
			if add {
				a, b = addStepCoeffs(&ts[k], qs[k], &invs[k])
			} else {
				a, b = doubleStepCoeffs(&ts[k], &invs[k])
			}
			scales[k].mulLine(&fs[k*perPair], &a, &b)
		}
		for j, tb := range tabs {
			ln := &tb.lines[line]
			scales[nc+j].mulLine(&fs[(nc+j)*perPair], &ln.a, &ln.b)
		}
	}
}

// fp12Point is an affine point on E(Fp12): y² = x³ + 3, used by the
// generic reference Miller loop.
type fp12Point struct {
	x, y ff.Fp12
}

// untwist maps a twist point into E(Fp12): ψ(x, y) = (x·w², y·w³).
func untwist(q *G2) fp12Point {
	var out fp12Point
	// x·w²: w² = v, so an Fp2 element c lands in coefficient e2 (C0.C1).
	out.x.C0.C1.Set(&q.x)
	// y·w³: coefficient e3 (C1.C1).
	out.y.C1.C1.Set(&q.y)
	return out
}

// genericLine evaluates the line through a and b (tangent when a == b) at
// the embedded point (xp, yp) and advances a to a+b. All arithmetic is in
// Fp12.
func genericLineAndAdd(a *fp12Point, b *fp12Point, xp, yp *ff.Fp12) *ff.Fp12 {
	var lambda ff.Fp12
	if a.x.Equal(&b.x) && a.y.Equal(&b.y) {
		var num, den ff.Fp12
		num.Square(&a.x)
		var three ff.Fp12
		three.SetOne()
		three.Add(&three, &three)
		var one ff.Fp12
		one.SetOne()
		three.Add(&three, &one)
		num.Mul(&num, &three)
		den.Add(&a.y, &a.y)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	} else {
		var num, den ff.Fp12
		num.Sub(&b.y, &a.y)
		den.Sub(&b.x, &a.x)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	}
	// l(P) = (yp − y_a) − λ(xp − x_a).
	var l, t ff.Fp12
	l.Sub(yp, &a.y)
	t.Sub(xp, &a.x)
	t.Mul(&t, &lambda)
	l.Sub(&l, &t)

	// a ← a + b.
	var x3, y3 ff.Fp12
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &b.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)
	a.x.Set(&x3)
	a.y.Set(&y3)
	return &l
}

// millerLoopGeneric computes f_{6u², ψ(Q)}(P) on E(Fp12) directly.
func millerLoopGeneric(p *G1, q *G2) *ff.Fp12 {
	qq := untwist(q)
	var xp, yp ff.Fp12
	xp.C0.C0.SetFp(&p.x)
	yp.C0.C0.SetFp(&p.y)

	var f ff.Fp12
	f.SetOne()
	t := fp12Point{}
	t.x.Set(&qq.x)
	t.y.Set(&qq.y)
	s := ateLoop
	for i := s.BitLen() - 2; i >= 0; i-- {
		f.Mul(&f, &f)
		tCopy := fp12Point{}
		tCopy.x.Set(&t.x)
		tCopy.y.Set(&t.y)
		l := genericLineAndAdd(&t, &tCopy, &xp, &yp)
		f.Mul(&f, l)
		if s.Bit(i) == 1 {
			l := genericLineAndAdd(&t, &qq, &xp, &yp)
			f.Mul(&f, l)
		}
	}
	return &f
}

// uLimbs is the BN parameter u as a limb scalar, feeding the
// allocation-free cyclotomic u-power exponentiations in the final
// exponentiation's hard part.
var uLimbs = [4]uint64{4965661367192848881}

// finalExpFastInto sets out = f^((p¹²−1)/r) using the easy part
// (p⁶−1)(p²+1) followed by the Devegili–Scott hard-part addition chain.
// out may alias f. Every intermediate lives on the stack and the
// u-power exponentiations run on limbs, so the whole exponentiation is
// allocation-free.
func finalExpFastInto(out, f *ff.Fp12) {
	// Easy part: t1 = f^((p⁶−1)(p²+1)).
	var t1, inv, t2 ff.Fp12
	t1.Conjugate(f) // f^(p⁶)
	inv.Inverse(f)
	t1.Mul(&t1, &inv) // f^(p⁶−1)
	t2.FrobeniusP2(&t1)
	t1.Mul(&t1, &t2) // ·(p²+1)

	// Hard part. After the easy part t1 lies in the cyclotomic subgroup
	// G_Φ12, so conjugation is inversion and the u-power exponentiations
	// and squarings below may use the Granger–Scott shortcuts.
	var fp, fp2, fp3 ff.Fp12
	fp.Frobenius(&t1)
	fp2.FrobeniusP2(&t1)
	fp3.Frobenius(&fp2)

	var fu, fu2, fu3 ff.Fp12
	fu.ExpCyclotomicLimbs(&t1, &uLimbs)
	fu2.ExpCyclotomicLimbs(&fu, &uLimbs)
	fu3.ExpCyclotomicLimbs(&fu2, &uLimbs)

	var y3, fu2p, fu3p, y2 ff.Fp12
	y3.Frobenius(&fu)
	fu2p.Frobenius(&fu2)
	fu3p.Frobenius(&fu3)
	y2.FrobeniusP2(&fu2)

	var y0 ff.Fp12
	y0.Mul(&fp, &fp2)
	y0.Mul(&y0, &fp3)

	var y1, y4, y5, y6 ff.Fp12
	y1.Conjugate(&t1)
	y5.Conjugate(&fu2)
	y3.Conjugate(&y3)
	y4.Mul(&fu, &fu2p)
	y4.Conjugate(&y4)
	y6.Mul(&fu3, &fu3p)
	y6.Conjugate(&y6)

	var t0, acc ff.Fp12
	t0.CyclotomicSquare(&y6)
	t0.Mul(&t0, &y4)
	t0.Mul(&t0, &y5)
	acc.Mul(&y3, &y5)
	acc.Mul(&acc, &t0)
	t0.Mul(&t0, &y2)
	acc.CyclotomicSquare(&acc)
	acc.Mul(&acc, &t0)
	acc.CyclotomicSquare(&acc)
	t0.Mul(&acc, &y1)
	acc.Mul(&acc, &y0)
	t0.CyclotomicSquare(&t0)
	t0.Mul(&t0, &acc)
	out.Set(&t0)
}

// finalExpFast is the allocating wrapper around finalExpFastInto,
// retained for tests and differential twins.
func finalExpFast(f *ff.Fp12) *ff.Fp12 {
	out := new(ff.Fp12)
	finalExpFastInto(out, f)
	return out
}
