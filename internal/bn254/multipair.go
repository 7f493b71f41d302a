package bn254

import (
	"repro/internal/ff"
	"repro/internal/par"
)

// Multi-pairing entry points. Both run the Miller loops of all input
// pairs in lockstep through millerInto, so the per-step line
// denominators are batch-inverted across the pairs.
//
//   - MultiPair computes the PRODUCT Π e(pᵢ, qᵢ): the pairs also share
//     a single Fp12 accumulator (one squaring per step total) and a
//     single final exponentiation. This is the right entry point for
//     product-of-pairings verifications and GT-side decryptions.
//   - PairBatch returns the SEPARATE values e(pᵢ, qᵢ): accumulators and
//     final exponentiations stay per-pair, only the inversions are
//     shared. This is the right entry point when each pairing output is
//     needed individually, e.g. the §5.2 ciphertext-reuse transport.
//
// Both entry points split large inputs into contiguous chunks of
// lockstep loops and fan the chunks out across cores (par.Chunks):
// the Miller accumulator is multiplicative, so the product of
// per-chunk accumulators equals the joint accumulator exactly. The
// cost of a chunk split is one extra Fp12 squaring chain per chunk
// (~190 squarings) plus narrower inversion batches, which is why the
// split gates on multiPairParMinChunk pairs per chunk — below two
// chunks' worth, or on a single-core host, one lockstep run covers
// every pair.

// activePairs drops the pairs with the identity on either side — they
// pair to 1 — and returns the others with their input positions.
func activePairs(ps []*G1, qs []*G2) (actP []*G1, actQ []*G2, idx []int) {
	actP = make([]*G1, 0, len(ps))
	actQ = make([]*G2, 0, len(ps))
	idx = make([]int, 0, len(ps))
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		actP = append(actP, ps[i])
		actQ = append(actQ, qs[i])
		idx = append(idx, i)
	}
	return actP, actQ, idx
}

// MultiPair computes Π e(ps[i], qs[i]) with one shared Miller
// accumulator and a single final exponentiation. Pairs where either
// side is the identity contribute 1 and are skipped. Panics if the
// slice lengths differ. Differentially tested against PairReference.
func MultiPair(ps []*G1, qs []*G2) *GT {
	if len(ps) != len(qs) {
		panic("bn254: MultiPair: mismatched lengths")
	}
	actP, actQ, _ := activePairs(ps, qs)
	if len(actP) == 0 {
		return GTOne()
	}

	var f [1]ff.Fp12
	if cs := par.Chunks(len(actP), multiPairParMinChunk); len(cs) > 1 {
		// One shared accumulator per chunk; the Miller value is
		// multiplicative so their product matches the joint run.
		fs := make([]ff.Fp12, len(cs))
		par.ForEach(len(cs), func(ci int) {
			lo, hi := cs[ci][0], cs[ci][1]
			millerInto(fs[ci:ci+1], actP[lo:hi], actQ[lo:hi], nil, nil)
		})
		f[0].Set(&fs[0])
		for ci := 1; ci < len(fs); ci++ {
			f[0].Mul(&f[0], &fs[ci])
		}
	} else {
		millerInto(f[:], actP, actQ, nil, nil)
	}

	out := new(GT)
	finalExpFastInto(&out.v, &f[0])
	return out
}

// multiPairParMinChunk is the smallest pair count worth a dedicated
// Miller chunk: each extra chunk pays its own ~190-squaring chain and
// narrows the shared inversion batches, so splits below 4 pairs per
// chunk lose even with idle cores. MultiPair(4) — the E11 reference
// shape — therefore always runs one lockstep loop.
const multiPairParMinChunk = 4

// PairBatch computes the n pairings e(ps[i], qs[i]) individually,
// sharing only the batched line-denominator inversions across the
// lockstep Miller loops. Identity pairs yield 1 at their position.
// Panics if the slice lengths differ. Differentially tested against
// PairReference.
func PairBatch(ps []*G1, qs []*G2) []*GT {
	if len(ps) != len(qs) {
		panic("bn254: PairBatch: mismatched lengths")
	}
	out := make([]*GT, len(ps))
	for i := range out {
		out[i] = GTOne()
	}
	actP, actQ, idx := activePairs(ps, qs)
	if len(idx) == 0 {
		return out
	}

	// Per-pair accumulators are already independent, so the lockstep
	// Miller loops chunk without any accumulator merging — only the
	// inversion batches narrow to chunk width.
	fs := make([]ff.Fp12, len(actQ))
	if cs := par.Chunks(len(actP), multiPairParMinChunk); len(cs) > 1 {
		par.ForEach(len(cs), func(ci int) {
			lo, hi := cs[ci][0], cs[ci][1]
			millerInto(fs[lo:hi], actP[lo:hi], actQ[lo:hi], nil, nil)
		})
	} else {
		millerInto(fs, actP, actQ, nil, nil)
	}

	// The per-pair final exponentiations are independent — fan them out
	// across CPUs (degrades to a sequential loop on one core).
	par.ForEach(len(idx), func(k int) {
		finalExpFastInto(&out[idx[k]].v, &fs[k])
	})
	return out
}
