// Package bn254 implements the BN254 pairing-friendly elliptic-curve
// groups and the optimal-ate/ate pairings over them, entirely on the Go
// standard library. It provides the "parameters generating algorithm"
// G(1ⁿ) of the paper (§2.1): prime-order groups G1, G2, GT of order r
// connected by an efficiently computable, non-degenerate bilinear map
//
//	e : G1 × G2 → GT.
//
// The paper is written for symmetric (Type-1) pairings; this library uses
// the standard asymmetric (Type-3) instantiation and fixes, once and for
// all, which side of the pairing each scheme element lives on (see
// package dlr). The BDDH and k-Lin assumptions the paper relies on are
// conjectured to hold in this group.
//
// Curve: E(Fp): y² = x³ + 3, with the sextic D-type twist
// E'(Fp2): y² = x³ + 3/ξ, ξ = 9+i.
//
// Random group elements can be sampled obliviously (without anyone
// learning their discrete logarithms) via hashing to the curve — a
// property the paper's §5.2 explicitly requires of the group.
//
// # Fast paths and timing caveats
//
// Scalar multiplication, pairing and exponentiation each have several
// implementations: a fast path (the short name — ScalarMult,
// ScalarBaseMult, Pair, MultiPair, PairBatch, G1MultiScalarMult,
// G2MultiScalarMult, GTMultiExp, GT.Exp) and a structurally simpler
// reference path (the *Reference name) that the fast path is
// differentially tested against. G1.ScalarMult decomposes the scalar
// along the GLV endomorphism φ(x,y) = (βx, y) and G2.ScalarMult along
// the GLS endomorphism ψ (untwist–Frobenius–twist) into half- and
// quarter-length sub-scalars, in allocation-free limb arithmetic (see
// internal/scalar, endo.go and limbmult.go). Prefer
// ScalarBaseMult over ScalarMult(Generator(), k) — it walks a
// precomputed fixed-base table — and prefer MultiPair/PairBatch over a
// loop of Pair calls when several pairings are evaluated together.
// When many G1 points are paired against the same fixed G2 point, build
// a PairingTable once and replay it (or mix replays with cold pairs via
// MultiPairMixed).
//
// None of the arithmetic is constant-time: wNAF recoding, windowed
// table walks and big.Int arithmetic all leak scalar bit patterns
// through timing and memory access. That is deliberate — the paper's
// continual-leakage model protects secrets by distribution and refresh
// (leakage of bounded λ bits per period is assumed and tolerated), not
// by side-channel-free arithmetic. Do not reuse this code where
// constant-time guarantees are required.
package bn254

import (
	"math/big"

	"repro/internal/ff"
)

// u is the BN parameter; p = 36u⁴+36u³+24u²+6u+1, r = 36u⁴+36u³+18u²+6u+1.
var u = new(big.Int).SetUint64(4965661367192848881)

// Order returns a copy of the (prime) order r of G1, G2 and GT.
func Order() *big.Int { return ff.Order() }

// curveB is the G1 curve constant b = 3.
var curveB = ff.FpFromInt64(3)

// twistB is the G2 curve constant b' = 3/ξ.
var twistB = func() *ff.Fp2 {
	var z ff.Fp2
	z.SetFp(ff.FpFromInt64(3))
	var xiInv ff.Fp2
	xiInv.Inverse(ff.Xi())
	z.Mul(&z, &xiInv)
	return &z
}()

// g2Cofactor is #E'(Fp2)/r = 2p − r.
var g2Cofactor = func() *big.Int {
	c := new(big.Int).Lsh(ff.Modulus(), 1)
	return c.Sub(c, ff.Order())
}()

// ateLoop is the ate-pairing Miller-loop length t−1 = 6u².
var ateLoop = func() *big.Int {
	s := new(big.Int).Mul(u, u)
	return s.Mul(s, big.NewInt(6))
}()

// finalExpPower is (p¹²−1)/r, the full final-exponentiation exponent used
// by the reference pairing path.
var finalExpPower = func() *big.Int {
	p := ff.Modulus()
	p12 := new(big.Int).Exp(p, big.NewInt(12), nil)
	p12.Sub(p12, big.NewInt(1))
	return p12.Div(p12, ff.Order())
}()
