package bn254

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/ff"
)

// G2 is a point on the sextic twist E'(Fp2): y² = x³ + 3/ξ, stored in
// affine coordinates and guaranteed (when produced by this package) to
// lie in the order-r subgroup. The zero value is the point at infinity.
type G2 struct {
	x, y ff.Fp2
	inf  bool
}

// G2Bytes is the size of the canonical G2 encoding.
const G2Bytes = 2 * ff.Fp2Bytes

// g2GenOnce lazily derives a deterministic generator of the order-r
// subgroup by hashing to the twist and clearing the cofactor 2p−r.
var g2GenOnce = struct {
	once sync.Once
	g    G2
}{}

// G2Generator returns a copy of the package's deterministic G2 generator.
func G2Generator() *G2 {
	g2GenOnce.once.Do(func() {
		pt := HashToG2("BN254-G2-GENERATOR", nil)
		if pt.IsInfinity() {
			panic("bn254: derived G2 generator is the identity")
		}
		g2GenOnce.g.Set(pt)
	})
	return new(G2).Set(&g2GenOnce.g)
}

// NewG2 returns the point at infinity.
func NewG2() *G2 { return &G2{inf: true} }

// Set sets z = a and returns z.
func (z *G2) Set(a *G2) *G2 {
	z.x.Set(&a.x)
	z.y.Set(&a.y)
	z.inf = a.inf
	return z
}

// SetInfinity sets z to the group identity and returns z.
func (z *G2) SetInfinity() *G2 {
	z.x.SetZero()
	z.y.SetZero()
	z.inf = true
	return z
}

// IsInfinity reports whether z is the group identity.
func (z *G2) IsInfinity() bool { return z.inf }

// Equal reports whether z and a are the same point.
func (z *G2) Equal(a *G2) bool {
	if z.inf || a.inf {
		return z.inf == a.inf
	}
	return z.x.Equal(&a.x) && z.y.Equal(&a.y)
}

// IsOnTwist reports whether z satisfies the twist equation.
func (z *G2) IsOnTwist() bool {
	if z.inf {
		return true
	}
	var lhs, rhs ff.Fp2
	lhs.Square(&z.y)
	rhs.Square(&z.x)
	rhs.Mul(&rhs, &z.x)
	rhs.Add(&rhs, twistB)
	return lhs.Equal(&rhs)
}

// IsInSubgroup reports whether z lies in the order-r subgroup. The
// fast path is the ψ-relation check
//
//	[u+1]z + ψ([u]z) + ψ²([u]z) = ψ³([2u]z)
//
// (El Housni–Guillevic–Piellard 2022, §4.3): the GLS relation vector
// (u+1, u, u, −2u) annihilates exactly the r-subgroup of the twist, so
// one ~63-bit ladder plus three ψ applications replace the full [r]z
// reference multiplication. Differentially tested against
// IsInSubgroupReference on both subgroup and non-subgroup points.
func (z *G2) IsInSubgroup() bool {
	if z.inf {
		return true
	}
	g2Endo.once.Do(g2EndoInit)
	var acc g2Jac
	g2WNAFMult(&acc, z, u)
	var uZ G2
	acc.toAffine(&uZ)

	var lhs, t G2
	lhs.Add(&uZ, z) // [u+1]z
	g2Psi(&t, &uZ)
	lhs.Add(&lhs, &t) // + ψ([u]z)
	g2Psi(&t, &t)
	lhs.Add(&lhs, &t) // + ψ²([u]z)

	var rhs G2
	rhs.Double(&uZ) // [2u]z
	g2Psi(&rhs, &rhs)
	g2Psi(&rhs, &rhs)
	g2Psi(&rhs, &rhs) // ψ³([2u]z)
	return lhs.Equal(&rhs)
}

// IsInSubgroupReference is the definitional subgroup check [r]z = O
// (via the raw-scalar ladder, which does not assume membership), kept
// as the differential-testing twin of the fast ψ-relation check.
func (z *G2) IsInSubgroupReference() bool {
	var t G2
	g2ScalarMultRaw(&t, z, ff.Order())
	return t.IsInfinity()
}

// Neg sets z = −a and returns z.
func (z *G2) Neg(a *G2) *G2 {
	z.x.Set(&a.x)
	z.y.Neg(&a.y)
	z.inf = a.inf
	return z
}

// Add sets z = a + b and returns z.
func (z *G2) Add(a, b *G2) *G2 {
	if a.inf {
		return z.Set(b)
	}
	if b.inf {
		return z.Set(a)
	}
	var lambda ff.Fp2
	if a.x.Equal(&b.x) {
		var negY ff.Fp2
		negY.Neg(&b.y)
		if a.y.Equal(&negY) {
			return z.SetInfinity()
		}
		var num, den ff.Fp2
		num.Square(&a.x)
		num.Mul(&num, fp2Three)
		den.Double(&a.y)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	} else {
		var num, den ff.Fp2
		num.Sub(&b.y, &a.y)
		den.Sub(&b.x, &a.x)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	}
	var x3, y3 ff.Fp2
	x3.Square(&lambda)
	x3.Sub(&x3, &a.x)
	x3.Sub(&x3, &b.x)
	y3.Sub(&a.x, &x3)
	y3.Mul(&y3, &lambda)
	y3.Sub(&y3, &a.y)
	z.x.Set(&x3)
	z.y.Set(&y3)
	z.inf = false
	return z
}

// Double sets z = 2a and returns z.
func (z *G2) Double(a *G2) *G2 { return z.Add(a, a) }

// g2Jac is a Jacobian-coordinate point used internally by ScalarMult.
type g2Jac struct {
	x, y, zz ff.Fp2 // affine = (X/Z², Y/Z³); Z = 0 means infinity
}

func (j *g2Jac) setInfinity() {
	j.x.SetOne()
	j.y.SetOne()
	j.zz.SetZero()
}

func (j *g2Jac) setAffine(a *G2) {
	if a.inf {
		j.setInfinity()
		return
	}
	j.x.Set(&a.x)
	j.y.Set(&a.y)
	j.zz.SetOne()
}

func (j *g2Jac) toAffine(out *G2) {
	if j.zz.IsZero() {
		out.SetInfinity()
		return
	}
	var zinv, zinv2, zinv3 ff.Fp2
	zinv.Inverse(&j.zz)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	out.x.Mul(&j.x, &zinv2)
	out.y.Mul(&j.y, &zinv3)
	out.inf = false
}

// double sets j = 2j (dbl-2009-l, a = 0).
func (j *g2Jac) double() {
	if j.zz.IsZero() {
		return
	}
	var a, b, c, d, e, f ff.Fp2
	a.Square(&j.x)
	b.Square(&j.y)
	c.Square(&b)
	d.Add(&j.x, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a) // 3a
	f.Square(&e)

	var x3, y3, z3 ff.Fp2
	x3.Double(&d)
	x3.Sub(&f, &x3)
	y3.Sub(&d, &x3)
	y3.Mul(&y3, &e)
	var c8 ff.Fp2
	c8.Double(&c)
	c8.Double(&c8)
	c8.Double(&c8) // 8c
	y3.Sub(&y3, &c8)
	z3.Mul(&j.y, &j.zz)
	z3.Double(&z3)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.zz.Set(&z3)
}

// addAffine sets j = j + a for an affine point a (madd-2007-bl).
func (j *g2Jac) addAffine(a *G2) {
	if a.inf {
		return
	}
	if j.zz.IsZero() {
		j.setAffine(a)
		return
	}
	var z1z1, u2, s2 ff.Fp2
	z1z1.Square(&j.zz)
	u2.Mul(&a.x, &z1z1)
	s2.Mul(&a.y, &j.zz)
	s2.Mul(&s2, &z1z1)

	if u2.Equal(&j.x) {
		if s2.Equal(&j.y) {
			j.double()
			return
		}
		j.setInfinity()
		return
	}

	var h, hh, i, jj, rr, v ff.Fp2
	h.Sub(&u2, &j.x)
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i) // 4hh
	jj.Mul(&h, &i)
	rr.Sub(&s2, &j.y)
	rr.Double(&rr)
	v.Mul(&j.x, &i)

	var x3, y3, z3, t ff.Fp2
	x3.Square(&rr)
	x3.Sub(&x3, &jj)
	t.Double(&v)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&y3, &rr)
	t.Mul(&j.y, &jj)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&j.zz, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.zz.Set(&z3)
}

// ScalarMult sets z = [k]a and returns z. k is reduced mod r — valid
// precisely because every externally obtainable G2 value lies in the
// order-r subgroup (the generator, hashing and arithmetic stay inside
// it, and SetBytes validates membership). The fast path is the GLS
// endomorphism method: k ≡ k₀ + k₁μ + k₂μ² + k₃μ³ (mod r) with
// |kᵢ| ≈ r^(1/4) and [k]a = Σ [kᵢ]ψⁱ(a) evaluated by one interleaved
// wNAF ladder over a quarter-length doubling chain (see endo.go,
// limbmult.go). ScalarMultReference retains the naive loop for
// differential testing.
// Cofactor clearing of points outside the subgroup uses the internal
// raw-scalar path g2ScalarMultRaw instead. Not constant-time: the
// decomposition and digit patterns of k leak through timing.
//
//dlr:noalloc
func (z *G2) ScalarMult(a *G2, k *big.Int) *G2 {
	e := ff.ReduceScalar(k)
	if e == [4]uint64{} || a.inf {
		return z.SetInfinity()
	}
	var acc g2Jac
	g2MultGLS(&acc, a, &e)
	acc.toAffine(z)
	return z
}

// g2ScalarMultRaw sets z = [k]a using the raw integer value of k (no
// reduction mod r); negative k negates the base. This is the path for
// points that may lie OUTSIDE the r-subgroup, where reducing mod r
// would be wrong: cofactor clearing in HashToG2 and the reference
// subgroup check.
func g2ScalarMultRaw(z *G2, a *G2, k *big.Int) *G2 {
	e := k
	var negBase G2
	base := a
	if k.Sign() < 0 {
		e = new(big.Int).Neg(k)
		negBase.Neg(a)
		base = &negBase
	}
	if e.Sign() == 0 || a.inf {
		return z.SetInfinity()
	}
	var acc g2Jac
	g2WNAFMult(&acc, base, e)
	acc.toAffine(z)
	return z
}

// ScalarMultReference is the naive double-and-add scalar
// multiplication the fast ScalarMult is differentially tested against.
// Semantics are identical: k is reduced mod r (subgroup points only).
func (z *G2) ScalarMultReference(a *G2, k *big.Int) *G2 {
	e := new(big.Int).Mod(k, ff.Order())
	if e.Sign() == 0 || a.inf {
		return z.SetInfinity()
	}
	var acc g2Jac
	acc.setInfinity()
	b := new(G2).Set(a)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if e.Bit(i) == 1 {
			acc.addAffine(b)
		}
	}
	acc.toAffine(z)
	return z
}

// ScalarBaseMult sets z = [k]·G2Generator and returns z. Like its G1
// counterpart it walks a lazily-built 64×15 table of precomputed
// affine generator multiples (radix-16 windows, mixed additions only).
// k is reduced mod r, which is always valid here because the generator
// has exact order r — including for negative k.
//
//dlr:noalloc
func (z *G2) ScalarBaseMult(k *big.Int) *G2 {
	e := ff.ReduceScalar(k)
	if e == [4]uint64{} {
		return z.SetInfinity()
	}
	tbl := g2FixedBaseTable()
	var acc g2Jac
	acc.setInfinity()
	for w := 0; w < fbWindows; w++ {
		if d := fbDigitLimbs(&e, w); d != 0 {
			acc.addAffine(&tbl[w][d-1])
		}
	}
	acc.toAffine(z)
	return z
}

// ScalarBaseMultReference delegates to the generic reference path —
// the pre-optimization behaviour, kept for differential tests and
// benchmarks.
func (z *G2) ScalarBaseMultReference(k *big.Int) *G2 {
	return z.ScalarMultReference(G2Generator(), k)
}

// RandG2 returns [k]·G2 for uniformly random k together with k.
func RandG2(rng io.Reader) (*G2, *big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k, err := rand.Int(rng, ff.Order())
	if err != nil {
		return nil, nil, fmt.Errorf("bn254: sampling scalar: %w", err)
	}
	return new(G2).ScalarBaseMult(k), k, nil
}

// HashToG2 hashes (tag, msg) to the order-r subgroup of the twist by
// try-and-increment followed by cofactor clearing. Nobody learns the
// discrete log of the result.
func HashToG2(tag string, msg []byte) *G2 {
	for ctr := uint32(0); ; ctr++ {
		var x ff.Fp2
		x.C0.Set(hashToFp(tag, msg, ctr, 0))
		x.C1.Set(hashToFp(tag, msg, ctr, 1))

		var rhs ff.Fp2
		rhs.Square(&x)
		rhs.Mul(&rhs, &x)
		rhs.Add(&rhs, twistB)
		var y ff.Fp2
		if _, ok := y.Sqrt(&rhs); !ok {
			continue
		}
		cand := G2{x: x, y: y}
		// cand lies on the twist but (almost surely) outside the
		// r-subgroup: clear the cofactor with the raw-scalar path.
		var cleared G2
		g2ScalarMultRaw(&cleared, &cand, g2Cofactor)
		if cleared.IsInfinity() {
			continue
		}
		return &cleared
	}
}

// hashToFp derives a base-field element from (tag, msg, ctr, idx).
func hashToFp(tag string, msg []byte, ctr uint32, idx byte) *ff.Fp {
	h := sha256.New()
	h.Write([]byte(tag))
	var buf [5]byte
	binary.BigEndian.PutUint32(buf[:4], ctr)
	buf[4] = idx
	h.Write(buf[:])
	h.Write(msg)
	d1 := h.Sum(nil)
	d2 := sha256.Sum256(append(d1, 0x01))
	return ff.NewFp(new(big.Int).SetBytes(append(d1, d2[:]...)))
}

// Bytes returns the canonical encoding x ‖ y (Fp2 coordinates), with the
// all-zero string reserved for the identity.
func (z *G2) Bytes() []byte {
	if z.inf {
		return make([]byte, G2Bytes)
	}
	out := make([]byte, 0, G2Bytes)
	out = append(out, z.x.Bytes()...)
	out = append(out, z.y.Bytes()...)
	return out
}

// SetBytes decodes the canonical encoding, rejecting points that are off
// the twist or outside the order-r subgroup.
func (z *G2) SetBytes(b []byte) (*G2, error) {
	if len(b) != G2Bytes {
		return nil, fmt.Errorf("bn254: G2 encoding must be %d bytes, got %d", G2Bytes, len(b))
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return z.SetInfinity(), nil
	}
	var x, y ff.Fp2
	if _, err := x.SetBytes(b[:ff.Fp2Bytes]); err != nil {
		return nil, err
	}
	if _, err := y.SetBytes(b[ff.Fp2Bytes:]); err != nil {
		return nil, err
	}
	cand := G2{x: x, y: y}
	if !cand.IsOnTwist() {
		return nil, fmt.Errorf("bn254: G2 point not on twist")
	}
	if !cand.IsInSubgroup() {
		return nil, fmt.Errorf("bn254: G2 point not in order-r subgroup")
	}
	return z.Set(&cand), nil
}

// String implements fmt.Stringer.
func (z *G2) String() string {
	if z.inf {
		return "G2(∞)"
	}
	return fmt.Sprintf("G2(%s, %s)", z.x.String(), z.y.String())
}
