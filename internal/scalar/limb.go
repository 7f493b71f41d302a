package scalar

import (
	"math/big"
	"math/bits"
)

// This file is the fixed-width limb twin of Decompose. The Babai
// round-off coefficients cᵢ = round(e·cof0[i]/det) are replaced by a
// fixed-point approximation c̃ᵢ = (e·gᵢ + 2²⁵⁵) >> 256 with
// gᵢ = round(2²⁵⁶·|cof0[i]|/|det|) precomputed at lattice
// construction; c̃ᵢ differs from the exact rounding by at most one,
// which is harmless because the recomposition aⱼ = e·δ₀ⱼ − Σᵢ cᵢ·bᵢⱼ is
// evaluated exactly (in sign-magnitude limb arithmetic), so any choice
// of cᵢ yields a valid decomposition — only the sub-scalar lengths
// wobble, by at most the basis-entry magnitude (see the Decompose doc:
// correctness never depends on the rounding, only size does). The
// result is a GLV/GLS split that performs zero heap allocations, which
// is what keeps bn254's endomorphism scalar multiplications
// allocation-free.

// SubScalar is one signed sub-scalar of a lattice decomposition, in
// sign-magnitude form: value = (−1)^Neg · V (V little-endian limbs).
type SubScalar struct {
	Neg bool
	V   [4]uint64
}

// IsZero reports whether the sub-scalar is zero.
func (s *SubScalar) IsZero() bool { return s.V == [4]uint64{} }

// BitLen returns the bit length of the magnitude.
func (s *SubScalar) BitLen() int {
	for i := 3; i >= 0; i-- {
		if s.V[i] != 0 {
			return 64*i + bits.Len64(s.V[i])
		}
	}
	return 0
}

// Big returns the signed value as a big.Int (allocates; test/debug use).
func (s *SubScalar) Big() *big.Int {
	b := make([]byte, 32)
	for i := 0; i < 4; i++ {
		for j := 0; j < 8; j++ {
			b[31-8*i-j] = byte(s.V[i] >> (8 * j))
		}
	}
	v := new(big.Int).SetBytes(b)
	if s.Neg {
		v.Neg(v)
	}
	return v
}

// lattLimbs is the per-lattice precomputed fixed-point data. ok is
// false when some quantity did not fit its fixed width (a pathological
// basis); DecomposeInto then reports failure. Generic callers can use
// the big.Int Decompose instead; bn254 refuses such a lattice at init.
type lattLimbs struct {
	ok bool
	// g[i] = round(2²⁵⁶·|cof0[i]|/|det|) < 2²⁵⁶, gNeg[i] the sign of
	// cof0[i]/det. (BN254's GLV lattice has g ≈ 2¹²⁹; the GLS one
	// g ≈ 2¹⁹⁹, which is why g gets a full four limbs.)
	g    [][4]uint64
	gNeg []bool
	// b[i][j] = |basis[i][j]| < 2¹²⁸, bNeg[i][j] its sign.
	b    [][][2]uint64
	bNeg [][]bool
}

// buildLattLimbs derives the fixed-point data from the verified
// big.Int lattice. Run once at NewLattice. Beyond the per-value widths,
// it checks that every cᵢ·bᵢⱼ product the recomposition forms fits the
// five-limb accumulator: cᵢ ≤ gᵢ (since cᵢ ≈ e·gᵢ/2²⁵⁶ with e < 2²⁵⁶),
// so bitlen(g) + bitlen(b) ≤ 320 suffices and is required.
func buildLattLimbs(l *Lattice) *lattLimbs {
	n := l.dim
	ll := &lattLimbs{
		ok:   true,
		g:    make([][4]uint64, n),
		gNeg: make([]bool, n),
		b:    make([][][2]uint64, n),
		bNeg: make([][]bool, n),
	}
	absDet := new(big.Int).Abs(l.det)
	maxGBits, maxBBits := 0, 0
	for i := 0; i < n; i++ {
		// g = round(|cof| · 2²⁵⁶ / |det|)
		num := new(big.Int).Abs(l.cof0[i])
		num.Lsh(num, 257)
		num.Add(num, absDet)
		num.Div(num, new(big.Int).Lsh(absDet, 1))
		if num.BitLen() > 256 {
			ll.ok = false
		}
		if num.BitLen() > maxGBits {
			maxGBits = num.BitLen()
		}
		for w := 0; w < 4 && ll.ok; w++ {
			var limb uint64
			for bit := 0; bit < 64; bit++ {
				if num.Bit(64*w+bit) == 1 {
					limb |= 1 << uint(bit)
				}
			}
			ll.g[i][w] = limb
		}
		ll.gNeg[i] = (l.cof0[i].Sign() < 0) != (l.det.Sign() < 0)

		ll.b[i] = make([][2]uint64, n)
		ll.bNeg[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			v := new(big.Int).Abs(l.basis[i][j])
			if v.BitLen() > 128 {
				ll.ok = false
				continue
			}
			if v.BitLen() > maxBBits {
				maxBBits = v.BitLen()
			}
			var lo, hi uint64
			for bit := 0; bit < 64; bit++ {
				if v.Bit(bit) == 1 {
					lo |= 1 << uint(bit)
				}
				if v.Bit(64+bit) == 1 {
					hi |= 1 << uint(bit)
				}
			}
			ll.b[i][j] = [2]uint64{lo, hi}
			ll.bNeg[i][j] = l.basis[i][j].Sign() < 0
		}
	}
	// The +1 absorbs the rounding's cᵢ ≤ gᵢ slack.
	if maxGBits+1+maxBBits > 320 {
		ll.ok = false
	}
	return ll
}

// signedAcc is a sign-magnitude accumulator wide enough for every
// intermediate the recomposition produces: buildLattLimbs admits a
// lattice only when every cᵢ·bᵢⱼ fits 320 bits (BN254's worst case is
// GLS at ≈ 2²⁶⁵), and DecomposeInto reports failure rather than
// wrapping if a sub-scalar still overflows.
type signedAcc struct {
	neg bool
	mag [5]uint64
}

func (a *signedAcc) isZero() bool { return a.mag == [5]uint64{} }

// addSigned folds (−1)^neg·m into the accumulator.
func (a *signedAcc) addSigned(neg bool, m *[5]uint64) {
	if a.isZero() {
		a.neg = neg
		a.mag = *m
		return
	}
	if a.neg == neg {
		var c uint64
		a.mag[0], c = bits.Add64(a.mag[0], m[0], 0)
		a.mag[1], c = bits.Add64(a.mag[1], m[1], c)
		a.mag[2], c = bits.Add64(a.mag[2], m[2], c)
		a.mag[3], c = bits.Add64(a.mag[3], m[3], c)
		a.mag[4], _ = bits.Add64(a.mag[4], m[4], c)
		return
	}
	// Opposite signs: subtract the smaller magnitude from the larger.
	if geq5(&a.mag, m) {
		sub5(&a.mag, m)
	} else {
		var t [5]uint64 = *m
		sub5(&t, &a.mag)
		a.mag = t
		a.neg = neg
	}
	if a.isZero() {
		a.neg = false
	}
}

func geq5(a, b *[5]uint64) bool {
	for i := 4; i >= 0; i-- {
		if a[i] > b[i] {
			return true
		}
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

func sub5(a, b *[5]uint64) {
	var bw uint64
	a[0], bw = bits.Sub64(a[0], b[0], 0)
	a[1], bw = bits.Sub64(a[1], b[1], bw)
	a[2], bw = bits.Sub64(a[2], b[2], bw)
	a[3], bw = bits.Sub64(a[3], b[3], bw)
	a[4], _ = bits.Sub64(a[4], b[4], bw)
}

// mul4x4 computes the full 512-bit product a·b.
func mul4x4(a, b *[4]uint64) [8]uint64 {
	var out [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(a[i], b[j])
			var c uint64
			lo, c = bits.Add64(lo, out[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			out[i+j] = lo
			carry = hi
		}
		out[i+4] += carry
	}
	return out
}

// mul4x2 computes the full 384-bit product a·b.
func mul4x2(a *[4]uint64, b *[2]uint64) [6]uint64 {
	var out [6]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 2; j++ {
			hi, lo := bits.Mul64(a[i], b[j])
			var c uint64
			lo, c = bits.Add64(lo, out[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			out[i+j] = lo
			carry = hi
		}
		out[i+2] += carry
	}
	return out
}

// LimbReady reports whether the fixed-point decomposition data fitted
// its widths at construction, i.e. whether DecomposeInto can succeed.
func (l *Lattice) LimbReady() bool { return l.limb != nil && l.limb.ok }

// DecomposeInto is the allocation-free limb twin of Decompose: it
// splits the already-reduced scalar e (little-endian limbs, 0 ≤ e <
// mod) into len(out) = Dim() signed sub-scalars with
// e ≡ Σ out[j]·μʲ (mod mod). It reports false — leaving out undefined —
// when the lattice's fixed-point data did not fit (LimbReady false) or
// a sub-scalar overflowed four limbs; generic callers can then use
// Decompose (bn254 treats a failure on its production lattices as a
// broken invariant and panics). The recomposition is exact, so the result is valid for
// any rounding of the Babai coefficients (the fixed-point cᵢ may
// differ from Decompose's by one, and the sub-scalars by one basis
// entry — both paths satisfy the recomposition identity the
// differential tests check).
//
//dlr:noalloc
func (l *Lattice) DecomposeInto(e *[4]uint64, out []SubScalar) bool {
	ll := l.limb
	if ll == nil || !ll.ok || len(out) != l.dim {
		return false
	}
	// Accumulators start at (e, 0, …, 0).
	var accs [maxLimbDim]signedAcc
	if l.dim > maxLimbDim {
		return false
	}
	accs[0].mag[0], accs[0].mag[1], accs[0].mag[2], accs[0].mag[3] = e[0], e[1], e[2], e[3]

	for i := 0; i < l.dim; i++ {
		// c̃ᵢ = (e·gᵢ + 2²⁵⁵) >> 256, a 4-limb magnitude.
		m := mul4x4(e, &ll.g[i])
		var c uint64
		m[3], c = bits.Add64(m[3], 1<<63, 0)
		m[4], c = bits.Add64(m[4], 0, c)
		m[5], c = bits.Add64(m[5], 0, c)
		m[6], c = bits.Add64(m[6], 0, c)
		m[7], _ = bits.Add64(m[7], 0, c)
		ci := [4]uint64{m[4], m[5], m[6], m[7]}
		if ci == [4]uint64{} {
			continue
		}
		ciNeg := ll.gNeg[i]
		for j := 0; j < l.dim; j++ {
			bij := &ll.b[i][j]
			if *bij == [2]uint64{} {
				continue
			}
			// cᵢ·bᵢⱼ fits five limbs: buildLattLimbs verified
			// bitlen(g)+1+bitlen(b) ≤ 320, and cᵢ ≤ gᵢ.
			t6 := mul4x2(&ci, bij)
			if t6[5] != 0 {
				return false
			}
			t := [5]uint64{t6[0], t6[1], t6[2], t6[3], t6[4]}
			// Contribution is −cᵢ·bᵢⱼ: negative exactly when cᵢ·bᵢⱼ > 0.
			accs[j].addSigned(ciNeg == ll.bNeg[i][j], &t)
		}
	}
	for j := 0; j < l.dim; j++ {
		if accs[j].mag[4] != 0 {
			return false
		}
		out[j].Neg = accs[j].neg
		out[j].V = [4]uint64{accs[j].mag[0], accs[j].mag[1], accs[j].mag[2], accs[j].mag[3]}
	}
	return true
}

// maxLimbDim bounds the lattice dimension the limb path supports (GLV
// is 2, GLS is 4).
const maxLimbDim = 4
