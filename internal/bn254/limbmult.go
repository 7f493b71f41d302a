package bn254

import (
	"repro/internal/ff"
	"repro/internal/scalar"
)

// This file is the endomorphism scalar-multiplication engine, in
// fixed-width limb arithmetic end to end: ff.ReduceScalar reduces the
// caller's scalar into [4]uint64, scalar.DecomposeInto splits it with
// the fixed-point Babai lattice data of endo.go, and ff.AppendWNAF
// recodes each sub-scalar into a caller-provided stack buffer. The
// ladder state (odd-multiple tables and digit slices) lives in
// g1LadderTerm / g2LadderTerm values that the single-point entries keep
// entirely on the stack, so a steady-state ScalarMult performs zero
// heap allocations.
//
// There is no second tier: g1EndoInit/g2EndoInit refuse a lattice that
// is not LimbReady, and DecomposeInto succeeds on every reduced scalar
// for both production lattices (TestProductionLatticesDecompose), so a
// failed decomposition is a broken invariant and panics. The
// differential twins are the naive *Reference ladders in g1.go/g2.go.

// errDecompose is the panic value for a failed production-lattice
// decomposition.
const errDecompose = "bn254: endomorphism lattice failed to decompose a reduced scalar"

// g1LadderTerm is one term of an interleaved wNAF ladder: the signed
// digits of its sub-scalar and the odd multiples {1,3,5,7}·P. Values
// are plain data so callers can keep small fixed arrays of terms on
// the stack.
type g1LadderTerm struct {
	digits []int8
	tbl    [1 << (wnafWidth - 2)]g1Jac
}

// init fills the odd-multiple table for base a. The digit slice is
// assigned by the caller, directly at the call site: a store through the
// receiver pointer would be treated as a heap leak by escape analysis
// and drag the caller's stack digit buffer onto the heap.
func (t *g1LadderTerm) init(a *G1) {
	t.tbl[0].setAffine(a)
	var twoA g1Jac
	twoA.setAffine(a)
	twoA.double()
	for j := 1; j < len(t.tbl); j++ {
		t.tbl[j] = t.tbl[j-1]
		t.tbl[j].add(&twoA)
	}
}

// g1LadderRun evaluates acc = Σ termᵢ over one shared doubling chain
// (Straus/wNAF interleaving): the chain is as long as the longest
// term's digits, and each term contributes one addition per ~(w+1)
// bits.
func g1LadderRun(acc *g1Jac, terms []g1LadderTerm) {
	maxLen := 0
	for i := range terms {
		if len(terms[i].digits) > maxLen {
			maxLen = len(terms[i].digits)
		}
	}
	acc.setInfinity()
	for i := maxLen - 1; i >= 0; i-- {
		acc.double()
		for k := range terms {
			t := &terms[k]
			if i >= len(t.digits) {
				continue
			}
			if d := t.digits[i]; d > 0 {
				acc.add(&t.tbl[d>>1])
			} else if d < 0 {
				n := t.tbl[(-d)>>1]
				n.neg()
				acc.add(&n)
			}
		}
	}
}

// g2LadderTerm is g1LadderTerm on the twist.
type g2LadderTerm struct {
	digits []int8
	tbl    [1 << (wnafWidth - 2)]g2Jac
}

func (t *g2LadderTerm) init(a *G2) {
	t.tbl[0].setAffine(a)
	var twoA g2Jac
	twoA.setAffine(a)
	twoA.double()
	for j := 1; j < len(t.tbl); j++ {
		t.tbl[j] = t.tbl[j-1]
		t.tbl[j].add(&twoA)
	}
}

func g2LadderRun(acc *g2Jac, terms []g2LadderTerm) {
	maxLen := 0
	for i := range terms {
		if len(terms[i].digits) > maxLen {
			maxLen = len(terms[i].digits)
		}
	}
	acc.setInfinity()
	for i := maxLen - 1; i >= 0; i-- {
		acc.double()
		for k := range terms {
			t := &terms[k]
			if i >= len(t.digits) {
				continue
			}
			if d := t.digits[i]; d > 0 {
				acc.add(&t.tbl[d>>1])
			} else if d < 0 {
				n := t.tbl[(-d)>>1]
				n.neg()
				acc.add(&n)
			}
		}
	}
}

// g1MultGLV sets acc = [e]a for a reduced non-zero e via the GLV
// split computed entirely in limb arithmetic.
func g1MultGLV(acc *g1Jac, a *G1, e *[4]uint64) {
	g1Endo.once.Do(g1EndoInit)
	var subs [2]scalar.SubScalar
	if !g1Endo.lat.DecomposeInto(e, subs[:]) {
		panic(errDecompose)
	}
	var bases [2]G1
	bases[0].Set(a)
	g1Phi(&bases[1], a, &g1Endo.beta)
	var bufs [2][ff.WNAFMaxDigits]int8
	var terms [2]g1LadderTerm
	n := 0
	for i := range subs {
		if subs[i].IsZero() || bases[i].inf {
			continue
		}
		if subs[i].Neg {
			bases[i].Neg(&bases[i])
		}
		terms[n].digits = ff.AppendWNAF(bufs[n][:0], subs[i].V, wnafWidth)
		terms[n].init(&bases[i])
		n++
	}
	g1LadderRun(acc, terms[:n])
}

// g2MultGLS is the 4-dimensional GLS analogue for r-subgroup
// points. The ψ chain is built on the UNNEGATED bases first and signs
// are folded in afterwards: ψ is applied to base i−1 to produce base i,
// so negating a base before its successor exists would propagate the
// sign into every later power of ψ.
func g2MultGLS(acc *g2Jac, a *G2, e *[4]uint64) {
	g2Endo.once.Do(g2EndoInit)
	var subs [4]scalar.SubScalar
	if !g2Endo.lat.DecomposeInto(e, subs[:]) {
		panic(errDecompose)
	}
	var bases [4]G2
	bases[0].Set(a)
	for i := 1; i < len(bases); i++ {
		g2Psi(&bases[i], &bases[i-1])
	}
	var bufs [4][ff.WNAFMaxDigits]int8
	var terms [4]g2LadderTerm
	n := 0
	for i := range subs {
		if subs[i].IsZero() || bases[i].inf {
			continue
		}
		if subs[i].Neg {
			bases[i].Neg(&bases[i])
		}
		terms[n].digits = ff.AppendWNAF(bufs[n][:0], subs[i].V, wnafWidth)
		terms[n].init(&bases[i])
		n++
	}
	g2LadderRun(acc, terms[:n])
}

// glvSplitLimbs decomposes one reduced scalar into GLV ladder terms,
// appending the digit recodings to the shared flat buffer and the
// prepared terms to terms. The caller must size the digit buffer so
// append never reallocates (earlier terms hold slices into it).
func glvSplitLimbs(p *G1, e *[4]uint64, terms []g1LadderTerm, digits []int8) ([]g1LadderTerm, []int8) {
	var subs [2]scalar.SubScalar
	if !g1Endo.lat.DecomposeInto(e, subs[:]) {
		panic(errDecompose)
	}
	var bases [2]G1
	bases[0].Set(p)
	g1Phi(&bases[1], p, &g1Endo.beta)
	for j := range subs {
		if subs[j].IsZero() || bases[j].inf {
			continue
		}
		if subs[j].Neg {
			bases[j].Neg(&bases[j])
		}
		start := len(digits)
		digits = ff.AppendWNAF(digits, subs[j].V, wnafWidth)
		terms = append(terms, g1LadderTerm{})
		terms[len(terms)-1].digits = digits[start:len(digits):len(digits)]
		terms[len(terms)-1].init(&bases[j])
	}
	return terms, digits
}

// glsSplitLimbs is glvSplitLimbs for the 4-way GLS split on the twist.
func glsSplitLimbs(q *G2, e *[4]uint64, terms []g2LadderTerm, digits []int8) ([]g2LadderTerm, []int8) {
	var subs [4]scalar.SubScalar
	if !g2Endo.lat.DecomposeInto(e, subs[:]) {
		panic(errDecompose)
	}
	var bases [4]G2
	bases[0].Set(q)
	for i := 1; i < len(bases); i++ {
		g2Psi(&bases[i], &bases[i-1])
	}
	for j := range subs {
		if subs[j].IsZero() || bases[j].inf {
			continue
		}
		if subs[j].Neg {
			bases[j].Neg(&bases[j])
		}
		start := len(digits)
		digits = ff.AppendWNAF(digits, subs[j].V, wnafWidth)
		terms = append(terms, g2LadderTerm{})
		terms[len(terms)-1].digits = digits[start:len(digits):len(digits)]
		terms[len(terms)-1].init(&bases[j])
	}
	return terms, digits
}
