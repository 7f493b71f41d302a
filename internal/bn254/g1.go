package bn254

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ff"
)

// G1 is a point on E(Fp): y² = x³ + 3, stored in affine coordinates. The
// zero value is the point at infinity (the group identity).
type G1 struct {
	x, y ff.Fp
	inf  bool
}

// G1Bytes is the size of the canonical G1 encoding.
const G1Bytes = 2 * ff.FpBytes

// g1Gen is the standard generator (1, 2).
var g1Gen = &G1{x: *ff.FpFromInt64(1), y: *ff.FpFromInt64(2)}

// G1Generator returns a copy of the standard generator (1, 2).
func G1Generator() *G1 { return new(G1).Set(g1Gen) }

// NewG1 returns the point at infinity.
func NewG1() *G1 { return &G1{inf: true} }

// Set sets z = a and returns z.
func (z *G1) Set(a *G1) *G1 {
	z.x.Set(&a.x)
	z.y.Set(&a.y)
	z.inf = a.inf
	return z
}

// SetInfinity sets z to the group identity and returns z.
func (z *G1) SetInfinity() *G1 {
	z.x.SetZero()
	z.y.SetZero()
	z.inf = true
	return z
}

// IsInfinity reports whether z is the group identity.
func (z *G1) IsInfinity() bool { return z.inf }

// Equal reports whether z and a are the same point.
func (z *G1) Equal(a *G1) bool {
	if z.inf || a.inf {
		return z.inf == a.inf
	}
	return z.x.Equal(&a.x) && z.y.Equal(&a.y)
}

// IsOnCurve reports whether z satisfies the curve equation (the identity
// is considered on-curve).
func (z *G1) IsOnCurve() bool {
	if z.inf {
		return true
	}
	var lhs, rhs ff.Fp
	lhs.Square(&z.y)
	rhs.Square(&z.x)
	rhs.Mul(&rhs, &z.x)
	rhs.Add(&rhs, curveB)
	return lhs.Equal(&rhs)
}

// Neg sets z = −a and returns z.
func (z *G1) Neg(a *G1) *G1 {
	z.x.Set(&a.x)
	z.y.Neg(&a.y)
	z.inf = a.inf
	return z
}

// Add sets z = a + b and returns z (affine chord-and-tangent).
func (z *G1) Add(a, b *G1) *G1 {
	if a.inf {
		return z.Set(b)
	}
	if b.inf {
		return z.Set(a)
	}
	var lambda ff.Fp
	if a.x.Equal(&b.x) {
		var negY ff.Fp
		negY.Neg(&b.y)
		if a.y.Equal(&negY) {
			return z.SetInfinity()
		}
		// Doubling: λ = 3x²/2y.
		var num, den ff.Fp
		num.Square(&a.x)
		num.MulInt64(&num, 3)
		den.Double(&a.y)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	} else {
		// λ = (y2 − y1)/(x2 − x1).
		var num, den ff.Fp
		num.Sub(&b.y, &a.y)
		den.Sub(&b.x, &a.x)
		den.Inverse(&den)
		lambda.Mul(&num, &den)
	}
	var x3, y3 ff.Fp
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
func (z *G1) Double(a *G1) *G1 { return z.Add(a, a) }

// g1Jac is a Jacobian-coordinate point used internally by ScalarMult.
type g1Jac struct {
	x, y, zz ff.Fp // (X, Y, Z); affine = (X/Z², Y/Z³); Z = 0 means infinity
}

func (j *g1Jac) setAffine(a *G1) {
	if a.inf {
		j.x.SetOne()
		j.y.SetOne()
		j.zz.SetZero()
		return
	}
	j.x.Set(&a.x)
	j.y.Set(&a.y)
	j.zz.SetOne()
}

func (j *g1Jac) toAffine(out *G1) {
	if j.zz.IsZero() {
		out.SetInfinity()
		return
	}
	var zinv, zinv2, zinv3 ff.Fp
	zinv.Inverse(&j.zz)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	out.x.Mul(&j.x, &zinv2)
	out.y.Mul(&j.y, &zinv3)
	out.inf = false
}

// double sets j = 2j (dbl-2009-l, a = 0).
func (j *g1Jac) double() {
	if j.zz.IsZero() {
		return
	}
	var a, b, c, d, e, f ff.Fp
	a.Square(&j.x)
	b.Square(&j.y)
	c.Square(&b)
	d.Add(&j.x, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.MulInt64(&a, 3)
	f.Square(&e)

	var x3, y3, z3 ff.Fp
	x3.Double(&d)
	x3.Sub(&f, &x3)
	y3.Sub(&d, &x3)
	y3.Mul(&y3, &e)
	var c8 ff.Fp
	c8.MulInt64(&c, 8)
	y3.Sub(&y3, &c8)
	z3.Mul(&j.y, &j.zz)
	z3.Double(&z3)

	j.x.Set(&x3)
	j.y.Set(&y3)
	j.zz.Set(&z3)
}

// addAffine sets j = j + a for an affine point a (madd-2007-bl).
func (j *g1Jac) addAffine(a *G1) {
	if a.inf {
		return
	}
	if j.zz.IsZero() {
		j.setAffine(a)
		return
	}
	var z1z1, u2, s2 ff.Fp
	z1z1.Square(&j.zz)
	u2.Mul(&a.x, &z1z1)
	s2.Mul(&a.y, &j.zz)
	s2.Mul(&s2, &z1z1)

	if u2.Equal(&j.x) {
		if s2.Equal(&j.y) {
			j.double()
			return
		}
		// j + (−j) = O.
		j.x.SetOne()
		j.y.SetOne()
		j.zz.SetZero()
		return
	}

	var h, hh, i, jj, rr, v ff.Fp
	h.Sub(&u2, &j.x)
	hh.Square(&h)
	i.MulInt64(&hh, 4)
	jj.Mul(&h, &i)
	rr.Sub(&s2, &j.y)
	rr.Double(&rr)
	v.Mul(&j.x, &i)

	var x3, y3, z3, t ff.Fp
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

// ScalarMult sets z = [k]a and returns z. k is reduced mod r (always
// valid on G1, whose full group order is r). The fast path is the GLV
// endomorphism method: k is split as k ≡ k₀ + k₁·λ (mod r) with
// |kᵢ| ≈ √r and [k]a = [k₀]a + [k₁]φ(a) is evaluated by one
// interleaved wNAF ladder over a half-length doubling chain (see
// endo.go, limbmult.go). ScalarMultReference retains the naive loop for
// differential testing. Not constant-time: the decomposition and digit
// patterns of k leak through timing.
//
//dlr:noalloc
func (z *G1) ScalarMult(a *G1, k *big.Int) *G1 {
	e := ff.ReduceScalar(k)
	if e == [4]uint64{} || a.inf {
		return z.SetInfinity()
	}
	var acc g1Jac
	g1MultGLV(&acc, a, &e)
	acc.toAffine(z)
	return z
}

// ScalarMultReference is the naive double-and-add scalar
// multiplication the fast ScalarMult is differentially tested against.
// Semantics are identical: k is reduced mod r.
func (z *G1) ScalarMultReference(a *G1, k *big.Int) *G1 {
	e := new(big.Int).Mod(k, ff.Order())
	if e.Sign() == 0 || a.inf {
		return z.SetInfinity()
	}
	var acc g1Jac
	acc.setInfinity()
	base := new(G1).Set(a)
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.double()
		if e.Bit(i) == 1 {
			acc.addAffine(base)
		}
	}
	acc.toAffine(z)
	return z
}

// ScalarBaseMult sets z = [k]·G for the standard generator and returns
// z. It reads a lazily-built table of 64×15 precomputed affine
// multiples of G (radix-16 windows), so the whole multiplication is at
// most 64 mixed additions with no doublings — several times faster
// than the generic path. k is reduced mod r.
//
//dlr:noalloc
func (z *G1) ScalarBaseMult(k *big.Int) *G1 {
	e := ff.ReduceScalar(k)
	if e == [4]uint64{} {
		return z.SetInfinity()
	}
	tbl := g1FixedBaseTable()
	var acc g1Jac
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
func (z *G1) ScalarBaseMultReference(k *big.Int) *G1 {
	return z.ScalarMultReference(g1Gen, k)
}

// RandG1 returns [k]·G for uniformly random k, together with k. The
// caller learns the discrete log; use HashToG1 when the log must remain
// unknown.
func RandG1(rng io.Reader) (*G1, *big.Int, error) {
	if rng == nil {
		rng = rand.Reader
	}
	k, err := rand.Int(rng, ff.Order())
	if err != nil {
		return nil, nil, fmt.Errorf("bn254: sampling scalar: %w", err)
	}
	return new(G1).ScalarBaseMult(k), k, nil
}

// HashToG1 hashes (tag, msg) onto the curve by try-and-increment. Since
// G1 has prime order and cofactor 1, the result is a uniform-ish group
// element whose discrete logarithm nobody knows — the oblivious sampling
// the paper's §5.2 requires.
func HashToG1(tag string, msg []byte) *G1 {
	for ctr := uint32(0); ; ctr++ {
		h := sha256.New()
		h.Write([]byte(tag))
		var ctrBuf [4]byte
		binary.BigEndian.PutUint32(ctrBuf[:], ctr)
		h.Write(ctrBuf[:])
		h.Write(msg)
		digest := h.Sum(nil)
		// Second block widens to 254+ bits.
		h2 := sha256.Sum256(append(digest, 0x01))
		wide := new(big.Int).SetBytes(append(digest, h2[:]...))
		x := ff.NewFp(wide)

		var rhs ff.Fp
		rhs.Square(x)
		rhs.Mul(&rhs, x)
		rhs.Add(&rhs, curveB)
		var y ff.Fp
		if _, ok := y.Sqrt(&rhs); !ok {
			continue
		}
		// Pick the lexicographically smaller root deterministically.
		var negY ff.Fp
		negY.Neg(&y)
		if negY.Big().Cmp(y.Big()) < 0 {
			y.Set(&negY)
		}
		return &G1{x: *x, y: y}
	}
}

// Bytes returns the canonical encoding: x ‖ y, with the all-zero string
// reserved for the identity (valid since (0,0) is not on the curve).
func (z *G1) Bytes() []byte {
	out := make([]byte, 0, G1Bytes)
	if z.inf {
		return make([]byte, G1Bytes)
	}
	out = append(out, z.x.Bytes()...)
	out = append(out, z.y.Bytes()...)
	return out
}

// SetBytes decodes the canonical encoding, rejecting off-curve points.
func (z *G1) SetBytes(b []byte) (*G1, error) {
	if len(b) != G1Bytes {
		return nil, fmt.Errorf("bn254: G1 encoding must be %d bytes, got %d", G1Bytes, len(b))
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
	var x, y ff.Fp
	if _, err := x.SetBytes(b[:ff.FpBytes]); err != nil {
		return nil, err
	}
	if _, err := y.SetBytes(b[ff.FpBytes:]); err != nil {
		return nil, err
	}
	cand := G1{x: x, y: y}
	if !cand.IsOnCurve() {
		return nil, fmt.Errorf("bn254: G1 point not on curve")
	}
	return z.Set(&cand), nil
}

// String implements fmt.Stringer.
func (z *G1) String() string {
	if z.inf {
		return "G1(∞)"
	}
	return fmt.Sprintf("G1(%s, %s)", z.x.String(), z.y.String())
}
