package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// cyclotomicElement builds a random element of the cyclotomic subgroup
// G_Φ12 by applying the final exponentiation's easy part
// x ↦ (x̄/x)^(p²+1) to a random invertible element: x̄/x = x^(p⁶−1) and
// the p²+1 power lands in the Φ12 factor of the full group order.
func cyclotomicElement(t *testing.T) *Fp12 {
	t.Helper()
	x, err := RandFp12(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var inv, u Fp12
	inv.Inverse(x)
	u.Conjugate(x)
	u.Mul(&u, &inv) // x^(p⁶−1)
	var f Fp12
	f.FrobeniusP2(&u)
	u.Mul(&u, &f) // x^((p⁶−1)(p²+1))
	if !u.IsCyclotomic() {
		t.Fatal("projection did not produce a cyclotomic element")
	}
	return &u
}

func TestFp2SquareMatchesMul(t *testing.T) {
	for i := 0; i < 200; i++ {
		x, err := RandFp2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var sq, mul Fp2
		sq.Square(x)
		mul.Mul(x, x)
		if !sq.Equal(&mul) {
			t.Fatalf("iteration %d: Square != Mul(x,x) for %v", i, x)
		}
	}
}

func TestFp2MulXiMatchesGenericMul(t *testing.T) {
	for i := 0; i < 200; i++ {
		x, err := RandFp2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var fast, slow Fp2
		fast.MulXi(x)
		slow.Mul(x, Xi())
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: MulXi != Mul(x, ξ) for %v", i, x)
		}
	}
}

func TestFp6SquareMatchesMul(t *testing.T) {
	for i := 0; i < 200; i++ {
		x, err := RandFp6(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var sq, mul Fp6
		sq.Square(x)
		mul.Mul(x, x)
		if !sq.Equal(&mul) {
			t.Fatalf("iteration %d: Fp6 Square != Mul(x,x)", i)
		}
	}
}

func TestFp12SquareMatchesMul(t *testing.T) {
	for i := 0; i < 200; i++ {
		x, err := RandFp12(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var sq, mul Fp12
		sq.Square(x)
		mul.Mul(x, x)
		if !sq.Equal(&mul) {
			t.Fatalf("iteration %d: Fp12 Square != Mul(x,x)", i)
		}
	}
}

func TestCyclotomicSquareMatchesSquare(t *testing.T) {
	for i := 0; i < 100; i++ {
		u := cyclotomicElement(t)
		var fast, slow Fp12
		fast.CyclotomicSquare(u)
		slow.Square(u)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: CyclotomicSquare != Square on unitary element", i)
		}
	}
	// Identity stays fixed.
	var one Fp12
	one.SetOne()
	var sq Fp12
	sq.CyclotomicSquare(&one)
	if !sq.IsOne() {
		t.Fatal("CyclotomicSquare(1) != 1")
	}
}

func TestIsUnitary(t *testing.T) {
	u := cyclotomicElement(t)
	if !u.IsUnitary() {
		t.Fatal("unitary element not recognized")
	}
	x, err := RandFp12(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if x.IsUnitary() {
		t.Fatal("random Fp12 element unexpectedly unitary")
	}
	var one Fp12
	one.SetOne()
	if !one.IsUnitary() {
		t.Fatal("1 must be unitary")
	}
}

func TestWNAFReconstructs(t *testing.T) {
	for _, w := range []uint{2, 3, 4, 5} {
		for i := 0; i < 50; i++ {
			e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 256))
			if err != nil {
				t.Fatal(err)
			}
			digits := WNAF(e, w)
			sum := new(big.Int)
			for j := len(digits) - 1; j >= 0; j-- {
				sum.Lsh(sum, 1)
				sum.Add(sum, big.NewInt(int64(digits[j])))
			}
			if sum.Cmp(e) != 0 {
				t.Fatalf("w=%d: wNAF digits do not reconstruct %v (got %v)", w, e, sum)
			}
			half := int8(1) << (w - 1)
			for _, d := range digits {
				if d == 0 {
					continue
				}
				if d&1 == 0 || d >= half || d <= -half {
					t.Fatalf("w=%d: digit %d out of range", w, d)
				}
			}
		}
	}
	if got := WNAF(new(big.Int), 4); len(got) != 0 {
		t.Fatalf("WNAF(0) should be empty, got %v", got)
	}
}

func TestExpCyclotomicMatchesExp(t *testing.T) {
	for i := 0; i < 100; i++ {
		u := cyclotomicElement(t)
		e, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 254))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 1 {
			e.Neg(e)
		}
		if i%7 == 0 {
			e.SetInt64(int64(i % 3)) // exercise 0, 1, 2
		}
		var fast, slow Fp12
		fast.ExpCyclotomic(u, e)
		slow.Exp(u, e)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: ExpCyclotomic != Exp for e=%v", i, e)
		}
	}
}

func TestMulLine01MatchesFullMul(t *testing.T) {
	for i := 0; i < 100; i++ {
		x, err := RandFp12(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		e1, _ := RandFp2(rand.Reader)
		e3, _ := RandFp2(rand.Reader)

		// Assemble the dense monic line ℓ = 1 + e1·w + e3·w³.
		var line Fp12
		line.C0.C0.SetOne()
		line.C1.C0.Set(e1)
		line.C1.C1.Set(e3)

		var fast, slow Fp12
		fast.MulLine01(x, e1, e3)
		slow.Mul(x, &line)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: MulLine01 != Mul with dense line", i)
		}
		// Aliased receiver.
		fast.Set(x)
		fast.MulLine01(&fast, e1, e3)
		if !fast.Equal(&slow) {
			t.Fatalf("iteration %d: aliased MulLine01 mismatch", i)
		}
	}
}
