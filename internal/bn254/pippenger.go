package bn254

import (
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/ff"
	"repro/internal/scalar"
)

// Pippenger bucket-method multi-scalar multiplication.
//
// Straus interleaving (scalarmult.go) pays one table and ~bits/(w+1)
// point additions *per term*; its cost is linear in n with a large
// constant. The bucket method instead slices every scalar into signed
// radix-2^c digits and, window by window, throws each term into the
// bucket addressed by its digit: n bucket additions per window
// regardless of how many buckets there are, plus 2^(c−1) additions to
// fold the buckets into a window sum. Total ≈ (bits/c)·(n + 2^c)
// additions, so for large n the per-term cost approaches one addition
// per window — asymptotically c-fold cheaper than wNAF interleaving.
//
// Three refinements keep the constant small:
//
//   - Signed digits in [−2^(c−1), 2^(c−1)]: affine negation is free, so
//     half the buckets suffice and the fold is half as long.
//   - Batch-affine bucket accumulation: buckets are affine points, and
//     each scheduling round applies every pending bucket += P with ONE
//     field inversion via Montgomery's simultaneous-inversion trick
//     (ff.BatchInverseFp). An amortized affine addition costs ~5 base
//     multiplications versus ~16 for the Jacobian adds Straus performs.
//   - Global scheduling: every window keeps its own bucket range inside
//     one flat array and all windows' pending additions share the same
//     scheduling rounds, so each round's inversion amortizes over
//     hundreds of additions. (Per-window scheduling costs ~windows×
//     more inversions for the same addition count — measured 2× slower
//     end to end.)
//
// Scalars are GLV/GLS-split (endo.go) before slicing, exactly as in the
// Straus path, so both tiers run on identical subscalar sets and the
// G1MultiExp/G2MultiExp dispatchers can pick purely by size. The
// FuzzMultiExp target and TestPippengerMatchesStraus pin the two tiers
// to bit-identical outputs.

// pippengerWindow returns the radix width c for an n-term (post-split)
// instance, minimizing (bits/c)·(n·A_affine + 2^(c−1)·A_jac) per the
// cost model derived in docs/ARCHITECTURE.md. The thresholds are the
// model's break-even points, validated by benchmarks on this tree.
func pippengerWindow(n int) int {
	switch {
	case n < 32:
		return 3
	case n < 96:
		return 4
	case n < 384:
		return 5
	case n < 1536:
		return 6
	case n < 6144:
		return 7
	default:
		return 8
	}
}

// pippengerCrossover is the number of *input* terms below which the
// dispatchers stay on Straus interleaving: under the cost model the
// bucket fold (2^(c−1) Jacobian adds per window) dominates until the
// per-window bucket additions outnumber it, which happens near 16
// terms (32 GLV subscalars). Measured crossover on this tree agrees;
// see docs/ARCHITECTURE.md.
const pippengerCrossover = 16

// scalarLimbs returns the low 256 bits of the non-negative e as
// little-endian limbs (GLV/GLS sub-scalars are far shorter).
func scalarLimbs(e *big.Int) [4]uint64 {
	var l [4]uint64
	for i, w := range e.Bits() {
		if i < 4 {
			l[i] = uint64(w)
		}
	}
	return l
}

// pippengerDigits slices each scalar into `windows` signed radix-2^c
// digits in [−2^(c−1), 2^(c−1)], flattened as digits[i*windows+w].
// Digit d of scalar i means: add sign(d)·P_i to bucket |d|−1 of window
// w. The window count must cover maxBits plus one carry digit.
func pippengerDigits(es []*big.Int, c, windows int) []int32 {
	digits := make([]int32, len(es)*windows)
	half := int64(1) << (c - 1)
	mask := uint64(1)<<c - 1
	for i, e := range es {
		l := scalarLimbs(e)
		carry := int64(0)
		for w := 0; w < windows; w++ {
			pos := w * c
			limb := pos >> 6
			off := uint(pos & 63)
			var raw uint64
			if limb < 4 {
				raw = l[limb] >> off
				if off+uint(c) > 64 && limb+1 < 4 {
					raw |= l[limb+1] << (64 - off)
				}
			}
			d := int64(raw&mask) + carry
			carry = 0
			if d > half {
				d -= int64(1) << c
				carry = 1
			}
			digits[i*windows+w] = int32(d)
		}
	}
	return digits
}

// appendPippengerDigits is pippengerDigits on already-reduced limb
// sub-scalars, appending into a reusable buffer instead of allocating.
func appendPippengerDigits(dst []int32, es [][4]uint64, c, windows int) []int32 {
	half := int64(1) << (c - 1)
	mask := uint64(1)<<c - 1
	for i := range es {
		l := &es[i]
		carry := int64(0)
		for w := 0; w < windows; w++ {
			pos := w * c
			limb := pos >> 6
			off := uint(pos & 63)
			var raw uint64
			if limb < 4 {
				raw = l[limb] >> off
				if off+uint(c) > 64 && limb+1 < 4 {
					raw |= l[limb+1] << (64 - off)
				}
			}
			d := int64(raw&mask) + carry
			carry = 0
			if d > half {
				d -= int64(1) << c
				carry = 1
			}
			dst = append(dst, int32(d))
		}
	}
	return dst
}

// limbBitLen returns the bit length of a little-endian limb scalar.
func limbBitLen(e *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if e[i] != 0 {
			return 64*i + bits.Len64(e[i])
		}
	}
	return 0
}

// bucketOp is one pending bucket += points[pt] addition. Both fields
// are indices (pt into a flat pointer-free point array with the
// negated copies in the upper half), which keeps the scheduling queues
// free of pointers — appending millions of ops must not generate GC
// write-barrier traffic.
type bucketOp struct {
	bucket int32
	pt     int32
}

// bucketScratch holds the scheduling work buffers so the accumulation
// loop allocates on growth only — and, once its owning arena has warmed
// up in the pool, not at all.
type bucketScratch struct {
	next   []bucketOp
	dens   []ff.Fp
	invs   []ff.Fp
	prefx  []ff.Fp
	dens2  []ff.Fp2
	invs2  []ff.Fp2
	prefx2 []ff.Fp2
	apply  []bucketOp
	kinds  []uint8
	stamp  []int32
}

// fpSlice returns s[:n], growing the backing array when needed. The
// generic-free trio below keeps the accumulation loops free of
// per-round make calls.
func fpSlice(s *[]ff.Fp, n int) []ff.Fp {
	if cap(*s) < n {
		*s = make([]ff.Fp, n)
	}
	*s = (*s)[:n]
	return *s
}

func fp2Slice(s *[]ff.Fp2, n int) []ff.Fp2 {
	if cap(*s) < n {
		*s = make([]ff.Fp2, n)
	}
	*s = (*s)[:n]
	return *s
}

func int32Slice(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// g1BucketAccumulate folds ops into the affine buckets. Each scheduling
// round claims at most one op per bucket, gathers the denominators of
// every claimed affine addition/doubling, inverts them all with a
// single field inversion (Montgomery's trick), and applies the
// additions; conflicting ops wait for the next round. Degenerate cases
// (empty bucket, doubling, cancellation) are resolved inline.
func g1BucketAccumulate(buckets []G1, points []G1, ops []bucketOp, scratch *bucketScratch) {
	cur, next := ops, scratch.next[:0]
	stamp := scratch.stamp
	for i := range buckets {
		stamp[i] = -1
	}
	dens, apply, kinds := scratch.dens[:0], scratch.apply[:0], scratch.kinds[:0]
	for round := int32(0); len(cur) > 0; round++ {
		next, dens, apply, kinds = next[:0], dens[:0], apply[:0], kinds[:0]
		for _, op := range cur {
			if stamp[op.bucket] == round {
				next = append(next, op)
				continue
			}
			stamp[op.bucket] = round
			dst, pt := &buckets[op.bucket], &points[op.pt]
			switch {
			case dst.inf:
				*dst = *pt
			case dst.x.Equal(&pt.x) && dst.y.Equal(&pt.y):
				var d ff.Fp
				d.Double(&dst.y) // doubling: λ = 3x²/(2y)
				dens = append(dens, d)
				apply = append(apply, op)
				kinds = append(kinds, 1)
			case dst.x.Equal(&pt.x):
				dst.SetInfinity() // P + (−P)
			default:
				var d ff.Fp
				d.Sub(&pt.x, &dst.x) // addition: λ = (y2−y1)/(x2−x1)
				dens = append(dens, d)
				apply = append(apply, op)
				kinds = append(kinds, 0)
			}
		}
		if len(dens) > 0 {
			invs := fpSlice(&scratch.invs, len(dens))
			ff.BatchInverseFpInto(invs, dens, fpSlice(&scratch.prefx, len(dens)))
			for k, op := range apply {
				dst, pt := &buckets[op.bucket], &points[op.pt]
				var lam, x3, y3 ff.Fp
				if kinds[k] == 1 {
					lam.Square(&dst.x)
					lam.MulInt64(&lam, 3)
					lam.Mul(&lam, &invs[k])
					x3.Square(&lam)
					y3.Double(&dst.x)
					x3.Sub(&x3, &y3)
				} else {
					lam.Sub(&pt.y, &dst.y)
					lam.Mul(&lam, &invs[k])
					x3.Square(&lam)
					x3.Sub(&x3, &dst.x)
					x3.Sub(&x3, &pt.x)
				}
				y3.Sub(&dst.x, &x3)
				y3.Mul(&y3, &lam)
				y3.Sub(&y3, &dst.y)
				dst.x.Set(&x3)
				dst.y.Set(&y3)
			}
		}
		cur, next = next, cur
	}
	scratch.next, scratch.dens, scratch.apply, scratch.kinds = next, dens, apply, kinds
}

// --- the twist, with ff.Fp2 coordinates ---

// g2BucketAccumulate is g1BucketAccumulate on the twist
// (ff.BatchInverseFp2 for the shared inversion).
func g2BucketAccumulate(buckets []G2, points []G2, ops []bucketOp, scratch *bucketScratch) {
	cur, next := ops, scratch.next[:0]
	stamp := scratch.stamp
	for i := range buckets {
		stamp[i] = -1
	}
	dens2, apply, kinds := scratch.dens2[:0], scratch.apply[:0], scratch.kinds[:0]
	for round := int32(0); len(cur) > 0; round++ {
		next, dens2, apply, kinds = next[:0], dens2[:0], apply[:0], kinds[:0]
		for _, op := range cur {
			if stamp[op.bucket] == round {
				next = append(next, op)
				continue
			}
			stamp[op.bucket] = round
			dst, pt := &buckets[op.bucket], &points[op.pt]
			switch {
			case dst.inf:
				*dst = *pt
			case dst.x.Equal(&pt.x) && dst.y.Equal(&pt.y):
				var d ff.Fp2
				d.Double(&dst.y)
				dens2 = append(dens2, d)
				apply = append(apply, op)
				kinds = append(kinds, 1)
			case dst.x.Equal(&pt.x):
				dst.SetInfinity()
			default:
				var d ff.Fp2
				d.Sub(&pt.x, &dst.x)
				dens2 = append(dens2, d)
				apply = append(apply, op)
				kinds = append(kinds, 0)
			}
		}
		if len(dens2) > 0 {
			invs := fp2Slice(&scratch.invs2, len(dens2))
			ff.BatchInverseFp2Into(invs, dens2, fp2Slice(&scratch.prefx2, len(dens2)))
			for k, op := range apply {
				dst, pt := &buckets[op.bucket], &points[op.pt]
				var lam, x3, y3, t ff.Fp2
				if kinds[k] == 1 {
					lam.Square(&dst.x)
					t.Double(&lam)
					lam.Add(&lam, &t) // 3x²
					lam.Mul(&lam, &invs[k])
					x3.Square(&lam)
					t.Double(&dst.x)
					x3.Sub(&x3, &t)
				} else {
					lam.Sub(&pt.y, &dst.y)
					lam.Mul(&lam, &invs[k])
					x3.Square(&lam)
					x3.Sub(&x3, &dst.x)
					x3.Sub(&x3, &pt.x)
				}
				y3.Sub(&dst.x, &x3)
				y3.Mul(&y3, &lam)
				y3.Sub(&y3, &dst.y)
				dst.x.Set(&x3)
				dst.y.Set(&y3)
			}
		}
		cur, next = next, cur
	}
	scratch.next, scratch.dens2, scratch.apply, scratch.kinds = next, dens2, apply, kinds
}

// --- reusable arenas and limb-scalar cores ---

// pippengerArena owns every buffer one bucket multi-exp needs: the
// sign-folded input points, the split sub-scalars, the flat digit and
// op queues, the bucket array and the accumulation scratch. Arenas are
// recycled through a sync.Pool (one per concurrently running
// multi-exp), so a steady-state pipeline of multi-exps stops allocating
// once the pool has warmed up to the working-set size.
type pippengerArena struct {
	g1Bases   []G1
	g1Points  []G1
	g1Buckets []G1
	g2Bases   []G2
	g2Points  []G2
	g2Buckets []G2
	vals      [][4]uint64
	digits    []int32
	ops       []bucketOp
	scratch   bucketScratch
}

var pippengerPool = sync.Pool{New: func() any { return new(pippengerArena) }}

func g1Slice(s *[]G1, n int) []G1 {
	if cap(*s) < n {
		*s = make([]G1, n)
	}
	*s = (*s)[:n]
	return *s
}

func g2Slice(s *[]G2, n int) []G2 {
	if cap(*s) < n {
		*s = make([]G2, n)
	}
	*s = (*s)[:n]
	return *s
}

// g1MultiExpPippengerLimbs runs the bucket method over sign-folded
// affine points and reduced limb sub-scalars, using the arena's
// buffers throughout. pts/es normally alias ar.g1Bases/ar.vals.
func g1MultiExpPippengerLimbs(acc *g1Jac, pts []G1, es [][4]uint64, ar *pippengerArena) {
	acc.setInfinity()
	if len(pts) == 0 {
		return
	}
	maxBits := 1
	for i := range es {
		if b := limbBitLen(&es[i]); b > maxBits {
			maxBits = b
		}
	}
	c := pippengerWindow(len(pts))
	windows := maxBits/c + 2
	ar.digits = appendPippengerDigits(ar.digits[:0], es, c, windows)
	digits := ar.digits

	n := len(pts)
	points := g1Slice(&ar.g1Points, 2*n)
	for i := range pts {
		points[i].Set(&pts[i])
		points[n+i].Neg(&pts[i])
	}
	nb := 1 << (c - 1)
	buckets := g1Slice(&ar.g1Buckets, windows*nb)
	for i := range buckets {
		buckets[i].SetInfinity()
	}
	ar.scratch.stamp = int32Slice(&ar.scratch.stamp, len(buckets))
	ops := ar.ops[:0]
	for i := 0; i < n; i++ {
		for w := 0; w < windows; w++ {
			d := digits[i*windows+w]
			switch {
			case d > 0:
				ops = append(ops, bucketOp{bucket: int32(w*nb) + d - 1, pt: int32(i)})
			case d < 0:
				ops = append(ops, bucketOp{bucket: int32(w*nb) - d - 1, pt: int32(n + i)})
			}
		}
	}
	ar.ops = ops
	g1BucketAccumulate(buckets, points, ops, &ar.scratch)

	for w := windows - 1; w >= 0; w-- {
		for i := 0; i < c; i++ {
			acc.double()
		}
		var running, sum g1Jac
		running.setInfinity()
		sum.setInfinity()
		win := buckets[w*nb : (w+1)*nb]
		for b := nb - 1; b >= 0; b-- {
			running.addAffine(&win[b])
			sum.add(&running)
		}
		acc.add(&sum)
	}
}

// g2MultiExpPippengerLimbs is g1MultiExpPippengerLimbs on the twist.
func g2MultiExpPippengerLimbs(acc *g2Jac, pts []G2, es [][4]uint64, ar *pippengerArena) {
	acc.setInfinity()
	if len(pts) == 0 {
		return
	}
	maxBits := 1
	for i := range es {
		if b := limbBitLen(&es[i]); b > maxBits {
			maxBits = b
		}
	}
	c := pippengerWindow(len(pts))
	windows := maxBits/c + 2
	ar.digits = appendPippengerDigits(ar.digits[:0], es, c, windows)
	digits := ar.digits

	n := len(pts)
	points := g2Slice(&ar.g2Points, 2*n)
	for i := range pts {
		points[i].Set(&pts[i])
		points[n+i].Neg(&pts[i])
	}
	nb := 1 << (c - 1)
	buckets := g2Slice(&ar.g2Buckets, windows*nb)
	for i := range buckets {
		buckets[i].SetInfinity()
	}
	ar.scratch.stamp = int32Slice(&ar.scratch.stamp, len(buckets))
	ops := ar.ops[:0]
	for i := 0; i < n; i++ {
		for w := 0; w < windows; w++ {
			d := digits[i*windows+w]
			switch {
			case d > 0:
				ops = append(ops, bucketOp{bucket: int32(w*nb) + d - 1, pt: int32(i)})
			case d < 0:
				ops = append(ops, bucketOp{bucket: int32(w*nb) - d - 1, pt: int32(n + i)})
			}
		}
	}
	ar.ops = ops
	g2BucketAccumulate(buckets, points, ops, &ar.scratch)

	for w := windows - 1; w >= 0; w-- {
		for i := 0; i < c; i++ {
			acc.double()
		}
		var running, sum g2Jac
		running.setInfinity()
		sum.setInfinity()
		win := buckets[w*nb : (w+1)*nb]
		for b := nb - 1; b >= 0; b-- {
			running.addAffine(&win[b])
			sum.add(&running)
		}
		acc.add(&sum)
	}
}

// --- exported tiers and dispatchers ---

// G1MultiExpPippenger computes Σ [scalars[i]]·points[i] with the bucket
// method: scalars are reduced mod r, GLV-split (endo.go), sliced into
// signed radix-2^c digits, and accumulated into batch-affine buckets.
// Faster than G1MultiScalarMult from a few dozen terms; use the
// G1MultiExp dispatcher unless a tier is being pinned deliberately.
func G1MultiExpPippenger(points []*G1, scalars []*big.Int) *G1 {
	if len(points) != len(scalars) {
		panic("bn254: G1MultiExpPippenger: mismatched lengths")
	}
	g1Endo.once.Do(g1EndoInit)
	ar := pippengerPool.Get().(*pippengerArena)
	bases := ar.g1Bases[:0]
	vals := ar.vals[:0]
	for i := range points {
		if points[i].inf {
			continue
		}
		e := ff.ReduceScalar(scalars[i])
		if e == [4]uint64{} {
			continue
		}
		var subs [2]scalar.SubScalar
		if !g1Endo.lat.DecomposeInto(&e, subs[:]) {
			panic(errDecompose)
		}
		var b [2]G1
		b[0].Set(points[i])
		g1Phi(&b[1], points[i], &g1Endo.beta)
		for j := range subs {
			if subs[j].IsZero() || b[j].inf {
				continue
			}
			if subs[j].Neg {
				b[j].Neg(&b[j])
			}
			bases = append(bases, b[j])
			vals = append(vals, subs[j].V)
		}
	}
	ar.g1Bases, ar.vals = bases, vals
	var acc g1Jac
	g1MultiExpPippengerLimbs(&acc, bases, vals, ar)
	pippengerPool.Put(ar)
	out := new(G1)
	acc.toAffine(out)
	return out
}

// G2MultiExpPippenger is G1MultiExpPippenger on the twist (GLS 4-way
// split). Like G2.ScalarMult it is only valid for points of the
// r-subgroup — which every externally obtainable G2 value is.
func G2MultiExpPippenger(points []*G2, scalars []*big.Int) *G2 {
	if len(points) != len(scalars) {
		panic("bn254: G2MultiExpPippenger: mismatched lengths")
	}
	g2Endo.once.Do(g2EndoInit)
	ar := pippengerPool.Get().(*pippengerArena)
	bases := ar.g2Bases[:0]
	vals := ar.vals[:0]
	for i := range points {
		if points[i].inf {
			continue
		}
		e := ff.ReduceScalar(scalars[i])
		if e == [4]uint64{} {
			continue
		}
		var subs [4]scalar.SubScalar
		if !g2Endo.lat.DecomposeInto(&e, subs[:]) {
			panic(errDecompose)
		}
		var b [4]G2
		b[0].Set(points[i])
		for j := 1; j < len(b); j++ {
			g2Psi(&b[j], &b[j-1])
		}
		for j := range subs {
			if subs[j].IsZero() || b[j].inf {
				continue
			}
			if subs[j].Neg {
				b[j].Neg(&b[j])
			}
			bases = append(bases, b[j])
			vals = append(vals, subs[j].V)
		}
	}
	ar.g2Bases, ar.vals = bases, vals
	var acc g2Jac
	g2MultiExpPippengerLimbs(&acc, bases, vals, ar)
	pippengerPool.Put(ar)
	out := new(G2)
	acc.toAffine(out)
	return out
}

// G1MultiExp computes Σ [scalars[i]]·points[i], dispatching by size:
//
//   - n < 16: Straus-interleaved wNAF over GLV subscalars
//     (G1MultiScalarMult) — the bucket fold overhead dominates below
//     the crossover.
//   - n ≥ 16: Pippenger bucket method with batch-affine accumulation
//     (G1MultiExpPippenger).
//
// Both tiers produce bit-identical results; the crossover constant is
// derived in docs/ARCHITECTURE.md and validated by E13.
func G1MultiExp(points []*G1, scalars []*big.Int) *G1 {
	if len(points) >= pippengerCrossover {
		return G1MultiExpPippenger(points, scalars)
	}
	return G1MultiScalarMult(points, scalars)
}

// G2MultiExp is G1MultiExp on the twist: Straus below the crossover,
// Pippenger with batch-affine buckets at or above it.
func G2MultiExp(points []*G2, scalars []*big.Int) *G2 {
	if len(points) >= pippengerCrossover {
		return G2MultiExpPippenger(points, scalars)
	}
	return G2MultiScalarMult(points, scalars)
}
