package bn254

import (
	"repro/internal/ff"
	"repro/internal/par"
)

// Precomputed-line pairings. The G2 side of the ate Miller loop — the
// twist-point doubling chain, its tangent/chord slopes and the field
// inversions they need — depends only on Q, not on the G1 argument. A
// PairingTable runs that chain once for a fixed Q and stores the
// per-step line coefficients (a, b); replaying the loop against any P
// then costs one Fp12 squaring plus one monic sparse line
// multiplication per step, with ZERO G2 arithmetic and a single Fp
// inversion for the entire replay (the 1/P.y line normalization).
//
// This is the right tool wherever the protocol pairs many fresh G1
// values against the same G2 value: the §5.2 ciphertext-reuse transport
// (fixed encrypted shares, per-request c.A), BB-IBE decryption (fixed
// identity-key component) and the GT-ElGamal baseline (fixed secret
// key). Building a table costs about one cold Miller loop's G2 work, so
// it amortizes after the second pairing.
//
// Tables hold only public curve data derived from Q; replay timing is
// independent of which table entry is read (the access pattern is fixed
// by the ate loop), but none of the surrounding arithmetic is
// constant-time — consistent with the rest of the package.

// tableLine is one stored Miller-loop line: l(P) = P.y + a·P.x·w + b·w³.
type tableLine struct {
	a, b ff.Fp2
}

// PairingTable holds the P-independent Miller-loop line coefficients
// for a fixed G2 point, one per entry of ateSteps. The zero value / a
// table built from the identity acts as pairing-with-identity: Pair
// returns 1.
type PairingTable struct {
	lines []tableLine
}

// NewPairingTable runs the G2 side of the ate Miller loop for q and
// stores the line coefficients. The per-step inversions are inherently
// sequential (each slope feeds the next point update), so the build
// costs about one cold pairing's worth of G2 arithmetic — amortized
// away after two replays. Differentially tested against PairReference.
func NewPairingTable(q *G2) *PairingTable {
	tb := &PairingTable{}
	if q.IsInfinity() {
		return tb
	}
	tb.lines = make([]tableLine, len(ateSteps))
	var t G2
	t.Set(q)
	for k, add := range ateSteps {
		ln := &tb.lines[k]
		if add {
			den := addStepDen(&t, q)
			den.InverseVartime(&den) // q is a public pairing input
			ln.a, ln.b = addStepCoeffs(&t, q, &den)
		} else {
			den := doubleStepDen(&t)
			den.InverseVartime(&den)
			ln.a, ln.b = doubleStepCoeffs(&t, &den)
		}
	}
	return tb
}

// IsIdentity reports whether the table was built from the G2 identity
// (every replay returns 1).
func (tb *PairingTable) IsIdentity() bool { return len(tb.lines) == 0 }

// Pair computes e(p, Q) for the table's fixed Q by replaying the stored
// lines, then applying the fast final exponentiation. Agrees with
// Pair(p, Q) on all inputs (differentially tested against
// PairReference). Steady-state cost is one heap allocation — the
// returned GT.
func (tb *PairingTable) Pair(p *G1) *GT {
	out := new(GT)
	if p.IsInfinity() || tb.IsIdentity() {
		return out.SetOne()
	}
	var f [1]ff.Fp12
	millerInto(f[:], nil, nil, []*G1{p}, []*PairingTable{tb})
	finalExpFastInto(&out.v, &f[0])
	return out
}

// PairTableBatch computes the n pairings e(ps[i], Qᵢ) for tables built
// from fixed Qᵢ. Replay loops have no inversions to batch, so the
// pairs are simply fanned out across CPUs (replay + final
// exponentiation per pair). Identity inputs yield 1 at their position.
// Panics if the slice lengths differ.
func PairTableBatch(ps []*G1, tabs []*PairingTable) []*GT {
	if len(ps) != len(tabs) {
		panic("bn254: PairTableBatch: mismatched lengths")
	}
	out := make([]*GT, len(ps))
	par.ForEach(len(ps), func(i int) {
		out[i] = tabs[i].Pair(ps[i])
	})
	return out
}

// MultiPairMixed computes Π e(ps[i], qs[i]) · Π e(tps[j], Tⱼ) where the
// first product runs cold Miller loops and the second replays
// precomputed tables — all in one lockstep run into ONE shared Fp12
// accumulator with a single final exponentiation. Use it when a
// product of pairings mixes fixed and fresh G2 arguments, e.g. BB-IBE
// decryption. Identity pairs on either list contribute 1 and are
// skipped. Panics on mismatched lengths.
func MultiPairMixed(ps []*G1, qs []*G2, tps []*G1, tabs []*PairingTable) *GT {
	if len(ps) != len(qs) {
		panic("bn254: MultiPairMixed: mismatched cold lengths")
	}
	if len(tps) != len(tabs) {
		panic("bn254: MultiPairMixed: mismatched table lengths")
	}
	actP, actQ, _ := activePairs(ps, qs)
	actTP := make([]*G1, 0, len(tps))
	actT := make([]*PairingTable, 0, len(tabs))
	for i := range tps {
		if tps[i].IsInfinity() || tabs[i].IsIdentity() {
			continue
		}
		actTP = append(actTP, tps[i])
		actT = append(actT, tabs[i])
	}
	if len(actP) == 0 && len(actTP) == 0 {
		return GTOne()
	}

	var f [1]ff.Fp12
	millerInto(f[:], actP, actQ, actTP, actT)
	out := new(GT)
	finalExpFastInto(&out.v, &f[0])
	return out
}
