package bn254

import (
	"math/big"
	"sync"

	"repro/internal/ff"
)

// This file holds the Jacobian point arithmetic the scalar
// multiplications share, the big.Int wNAF ladder for raw (unreduced)
// scalars on the twist, fixed-base precomputation tables for the two
// generators, and Straus-interleaved multi-scalar multiplication over
// GLV/GLS sub-scalars. The naive double-and-add loops survive as
// ScalarMultReference / ScalarBaseMultReference in g1.go and g2.go;
// differential tests pin the two paths to bit-identical outputs.
//
// Like every routine in this package, none of this is constant-time:
// wNAF recoding, table indexing, and the big.Int arithmetic all branch
// on secret data. The continual-leakage model of the paper tolerates
// bounded leakage per period, but deployments needing side-channel
// hardening must treat these routines as leaky.

// --- full Jacobian-Jacobian addition (add-2007-bl) ---

func (j *g1Jac) setInfinity() {
	j.x.SetOne()
	j.y.SetOne()
	j.zz.SetZero()
}

func (j *g1Jac) neg() {
	j.y.Neg(&j.y)
}

// add sets j = j + o for two Jacobian points (add-2007-bl), handling
// infinities and the doubling/cancellation cases.
func (j *g1Jac) add(o *g1Jac) {
	if o.zz.IsZero() {
		return
	}
	if j.zz.IsZero() {
		*j = *o
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp
	z1z1.Square(&j.zz)
	z2z2.Square(&o.zz)
	u1.Mul(&j.x, &z2z2)
	u2.Mul(&o.x, &z1z1)
	s1.Mul(&j.y, &o.zz)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&o.y, &j.zz)
	s2.Mul(&s2, &z1z1)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			j.double()
			return
		}
		j.setInfinity()
		return
	}

	var h, hh2, i, jj, rr, v ff.Fp
	h.Sub(&u2, &u1)
	hh2.Double(&h)
	i.Square(&hh2)
	jj.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)

	var x3, y3, z3, t ff.Fp
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&j.zz, &o.zz)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.zz.Set(&z3)
}

func (j *g2Jac) neg() {
	j.y.Neg(&j.y)
}

// add sets j = j + o (add-2007-bl over Fp2).
func (j *g2Jac) add(o *g2Jac) {
	if o.zz.IsZero() {
		return
	}
	if j.zz.IsZero() {
		*j = *o
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp2
	z1z1.Square(&j.zz)
	z2z2.Square(&o.zz)
	u1.Mul(&j.x, &z2z2)
	u2.Mul(&o.x, &z1z1)
	s1.Mul(&j.y, &o.zz)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&o.y, &j.zz)
	s2.Mul(&s2, &z1z1)

	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			j.double()
			return
		}
		j.setInfinity()
		return
	}

	var h, hh2, i, jj, rr, v ff.Fp2
	h.Sub(&u2, &u1)
	hh2.Double(&h)
	i.Square(&hh2)
	jj.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)

	var x3, y3, z3, t ff.Fp2
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&s1, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&j.zz, &o.zz)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.zz.Set(&z3)
}

// --- batch normalization (one inversion for a whole table) ---

// g1BatchToAffine converts Jacobian points to affine with a single
// field inversion (Montgomery's trick on the Z coordinates).
func g1BatchToAffine(jacs []g1Jac, out []G1) {
	zs := make([]ff.Fp, len(jacs))
	for i := range jacs {
		zs[i].Set(&jacs[i].zz)
	}
	invs := ff.BatchInverseFp(zs)
	for i := range jacs {
		if jacs[i].zz.IsZero() {
			out[i].SetInfinity()
			continue
		}
		var zi2, zi3 ff.Fp
		zi2.Square(&invs[i])
		zi3.Mul(&zi2, &invs[i])
		out[i].x.Mul(&jacs[i].x, &zi2)
		out[i].y.Mul(&jacs[i].y, &zi3)
		out[i].inf = false
	}
}

// g2BatchToAffine is g1BatchToAffine for the twist.
func g2BatchToAffine(jacs []g2Jac, out []G2) {
	zs := make([]ff.Fp2, len(jacs))
	for i := range jacs {
		zs[i].Set(&jacs[i].zz)
	}
	invs := ff.BatchInverseFp2(zs)
	for i := range jacs {
		if jacs[i].zz.IsZero() {
			out[i].SetInfinity()
			continue
		}
		var zi2, zi3 ff.Fp2
		zi2.Square(&invs[i])
		zi3.Mul(&zi2, &invs[i])
		out[i].x.Mul(&jacs[i].x, &zi2)
		out[i].y.Mul(&jacs[i].y, &zi3)
		out[i].inf = false
	}
}

// --- width-4 wNAF variable-base multiplication ---

const wnafWidth = 4

// g2WNAFMult sets acc = [e]a for e > 0 using width-4 wNAF: a table of
// the odd multiples {1,3,5,7}·a and signed digits, costing ~e.BitLen()
// doublings plus one addition per ~(w+1) bits. It uses the raw value of
// e, so it is the ladder for points that may lie outside the r-subgroup
// (g2ScalarMultRaw, IsInSubgroup), where the endomorphism split does
// not apply.
func g2WNAFMult(acc *g2Jac, a *G2, e *big.Int) {
	digits := ff.WNAF(e, wnafWidth)
	var tbl [1 << (wnafWidth - 2)]g2Jac
	tbl[0].setAffine(a)
	var twoA g2Jac
	twoA.setAffine(a)
	twoA.double()
	for i := 1; i < len(tbl); i++ {
		tbl[i] = tbl[i-1]
		tbl[i].add(&twoA)
	}
	acc.setInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc.double()
		if d := digits[i]; d > 0 {
			acc.add(&tbl[d>>1])
		} else if d < 0 {
			n := tbl[(-d)>>1]
			n.neg()
			acc.add(&n)
		}
	}
}

// --- fixed-base tables for the generators ---

// Fixed-base multiplication uses radix-16 digits: 64 windows of 4 bits
// cover any 256-bit scalar, and window i holds the 15 multiples
// d·2^(4i)·G for d = 1..15, stored affine so the evaluation loop is
// pure mixed additions — no doublings at multiplication time.
const (
	fbWindowBits = 4
	fbWindows    = 64
	fbTableSize  = 1<<fbWindowBits - 1 // 15
)

var g1FixedBase = struct {
	once sync.Once
	tbl  [fbWindows][fbTableSize]G1
}{}

func g1FixedBaseTable() *[fbWindows][fbTableSize]G1 {
	g1FixedBase.once.Do(func() {
		jacs := make([]g1Jac, fbWindows*fbTableSize)
		var base g1Jac
		base.setAffine(g1Gen)
		g1FixedBaseRows(jacs, base)
		flat := make([]G1, len(jacs))
		g1BatchToAffine(jacs, flat)
		for w := 0; w < fbWindows; w++ {
			copy(g1FixedBase.tbl[w][:], flat[w*fbTableSize:(w+1)*fbTableSize])
		}
	})
	return &g1FixedBase.tbl
}

var g2FixedBase = struct {
	once sync.Once
	tbl  [fbWindows][fbTableSize]G2
}{}

func g2FixedBaseTable() *[fbWindows][fbTableSize]G2 {
	g2FixedBase.once.Do(func() {
		gen := G2Generator()
		jacs := make([]g2Jac, fbWindows*fbTableSize)
		var base g2Jac
		base.setAffine(gen)
		g2FixedBaseRows(jacs, base)
		flat := make([]G2, len(jacs))
		g2BatchToAffine(jacs, flat)
		for w := 0; w < fbWindows; w++ {
			copy(g2FixedBase.tbl[w][:], flat[w*fbTableSize:(w+1)*fbTableSize])
		}
	})
	return &g2FixedBase.tbl
}

// fbDigit extracts the radix-16 digit of e at window w.
func fbDigit(e *big.Int, w int) uint {
	base := uint(w) * fbWindowBits
	return e.Bit(int(base)) |
		e.Bit(int(base)+1)<<1 |
		e.Bit(int(base)+2)<<2 |
		e.Bit(int(base)+3)<<3
}

// fbDigitLimbs is fbDigit on a reduced limb scalar. Windows are 4 bits,
// so no digit straddles a limb boundary.
func fbDigitLimbs(e *[4]uint64, w int) uint {
	pos := uint(w) * fbWindowBits
	return uint(e[pos>>6]>>(pos&63)) & (1<<fbWindowBits - 1)
}

// --- multi-scalar multiplication (Straus interleaving + GLV/GLS split) ---

// G1MultiScalarMult computes Σ [scalars[i]]·points[i] with one shared
// doubling chain. Each scalar is reduced mod r (matching G1.ScalarMult)
// and GLV-split into two half-length sub-scalars on (P, φ(P)), so an
// n-term sum runs 2n interleaved terms over a ~√r-length chain —
// roughly half the doublings of plain Straus. Panics if the slice
// lengths differ.
func G1MultiScalarMult(points []*G1, scalars []*big.Int) *G1 {
	if len(points) != len(scalars) {
		panic("bn254: G1MultiScalarMult: mismatched lengths")
	}
	g1Endo.once.Do(g1EndoInit)
	// Exactly-sized flat digit buffer: every term appends at most
	// WNAFMaxDigits, and append must never reallocate because earlier
	// terms hold slices into the buffer.
	terms := make([]g1LadderTerm, 0, 2*len(points))
	digits := make([]int8, 0, 2*len(points)*ff.WNAFMaxDigits)
	for i := range points {
		if points[i].inf {
			continue
		}
		e := ff.ReduceScalar(scalars[i])
		if e == [4]uint64{} {
			continue
		}
		terms, digits = glvSplitLimbs(points[i], &e, terms, digits)
	}
	var acc g1Jac
	g1LadderRun(&acc, terms)
	out := new(G1)
	acc.toAffine(out)
	return out
}

// G2MultiScalarMult is G1MultiScalarMult on the twist: scalars are
// reduced mod r (matching G2.ScalarMult) and GLS-split four ways on
// (Q, ψQ, ψ²Q, ψ³Q), so the shared chain is ~r^(1/4) long. Like
// G2.ScalarMult this is only valid for points of the r-subgroup —
// which every externally obtainable G2 value is. Panics if the slice
// lengths differ.
func G2MultiScalarMult(points []*G2, scalars []*big.Int) *G2 {
	if len(points) != len(scalars) {
		panic("bn254: G2MultiScalarMult: mismatched lengths")
	}
	g2Endo.once.Do(g2EndoInit)
	terms := make([]g2LadderTerm, 0, 4*len(points))
	digits := make([]int8, 0, 4*len(points)*ff.WNAFMaxDigits)
	for i := range points {
		if points[i].inf {
			continue
		}
		e := ff.ReduceScalar(scalars[i])
		if e == [4]uint64{} {
			continue
		}
		terms, digits = glsSplitLimbs(points[i], &e, terms, digits)
	}
	var acc g2Jac
	g2LadderRun(&acc, terms)
	out := new(G2)
	acc.toAffine(out)
	return out
}
