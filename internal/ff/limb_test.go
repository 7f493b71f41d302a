package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestFpInverseMatchesModInverse pins the Fermat addition-chain
// inversion to the big.Int extended-GCD result it replaced.
func TestFpInverseMatchesModInverse(t *testing.T) {
	check := func(x *Fp) {
		var got Fp
		got.Inverse(x)
		if x.IsZero() {
			if !got.IsZero() {
				t.Fatal("Inverse(0) != 0")
			}
			return
		}
		want := new(big.Int).ModInverse(x.Big(), p)
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("Inverse diverged from ModInverse for x=%v", x)
		}
		var prod Fp
		prod.Mul(&got, x)
		if !prod.IsOne() {
			t.Fatalf("x·x⁻¹ != 1 for x=%v", x)
		}
	}
	check(new(Fp).SetZero())
	check(new(Fp).SetOne())
	check(NewFp(new(big.Int).Sub(p, bigOne)))
	check(FpFromInt64(2))
	for i := 0; i < 200; i++ {
		x, err := RandFp(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		check(x)
	}
}

// TestExpLimbFastPath compares the limb-window exponentiation against a
// plain big.Int square-and-multiply loop for Fp, Fp2 and Fp12.
func TestExpLimbFastPath(t *testing.T) {
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(16),
		new(big.Int).Sub(p, bigOne),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne),
	}
	for i := 0; i < 20; i++ {
		e, err := randInt(rand.Reader, p)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	naiveFp := func(x *Fp, e *big.Int) *Fp {
		acc := new(Fp).SetOne()
		for i := e.BitLen() - 1; i >= 0; i-- {
			acc.Square(acc)
			if e.Bit(i) == 1 {
				acc.Mul(acc, x)
			}
		}
		return acc
	}
	x, err := RandFp(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := RandFp2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	x12, err := RandFp12(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exps {
		var got Fp
		got.Exp(x, e)
		if want := naiveFp(x, e); !got.Equal(want) {
			t.Fatalf("Fp.Exp limb path diverged for e=%v", e)
		}
		// Fp2/Fp12: the limb path must agree with itself under e and
		// e + (multiplicative order), and with repeated squaring.
		var g2, w2 Fp2
		g2.Exp(x2, e)
		w2.SetOne()
		for i := e.BitLen() - 1; i >= 0; i-- {
			w2.Square(&w2)
			if e.Bit(i) == 1 {
				w2.Mul(&w2, x2)
			}
		}
		if !g2.Equal(&w2) {
			t.Fatalf("Fp2.Exp limb path diverged for e=%v", e)
		}
		var g12, w12 Fp12
		g12.Exp(x12, e)
		w12.SetOne()
		for i := e.BitLen() - 1; i >= 0; i-- {
			w12.Square(&w12)
			if e.Bit(i) == 1 {
				w12.Mul(&w12, x12)
			}
		}
		if !g12.Equal(&w12) {
			t.Fatalf("Fp12.Exp limb path diverged for e=%v", e)
		}
	}
}

// TestAppendWNAFMatchesWNAF pins the limb recoder to the big.Int
// recoder digit-for-digit across all widths.
func TestAppendWNAFMatchesWNAF(t *testing.T) {
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(255),
		new(big.Int).Sub(r, bigOne),
		new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), big.NewInt(9)),
	}
	for i := 0; i < 50; i++ {
		e, err := randInt(rand.Reader, r)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, e)
	}
	for _, e := range vals {
		limbs, ok := limbsFromBig(e)
		if !ok {
			t.Fatalf("limbsFromBig rejected %v", e)
		}
		for w := uint(2); w <= 8; w++ {
			want := WNAF(e, w)
			var buf [WNAFMaxDigits]int8
			got := AppendWNAF(buf[:0], limbs, w)
			if len(got) != len(want) {
				t.Fatalf("w=%d e=%v: digit count %d != %d", w, e, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("w=%d e=%v: digit %d: %d != %d", w, e, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExpCyclotomicLimbsMatchesExp checks the limb cyclotomic power
// against the generic exponentiation on subgroup elements.
func TestExpCyclotomicLimbsMatchesExp(t *testing.T) {
	for i := 0; i < 10; i++ {
		u := cyclotomicElement(t)
		e, err := randInt(rand.Reader, r)
		if err != nil {
			t.Fatal(err)
		}
		limbs, _ := limbsFromBig(e)
		var fast, gen Fp12
		fast.ExpCyclotomicLimbs(u, &limbs)
		gen.Exp(u, e)
		if !fast.Equal(&gen) {
			t.Fatalf("ExpCyclotomicLimbs != Exp for e=%v", e)
		}
	}
}

// TestReduceScalar covers the limb fast path and the big.Int fallbacks
// (negative and >256-bit inputs).
func TestReduceScalar(t *testing.T) {
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, bigOne),
		new(big.Int).Set(r),
		new(big.Int).Add(r, bigOne),
		new(big.Int).Sub(new(big.Int).Lsh(bigOne, 256), bigOne),
		big.NewInt(-7),
		new(big.Int).Neg(r),
		new(big.Int).Lsh(bigOne, 300),
	}
	for i := 0; i < 50; i++ {
		e, err := randInt(rand.Reader, new(big.Int).Lsh(bigOne, 256))
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, e)
	}
	for _, k := range vals {
		got := fromLimbs(ReduceScalar(k))
		want := new(big.Int).Mod(k, r)
		if got.Cmp(want) != 0 {
			t.Fatalf("ReduceScalar(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestBatchInverseInto covers the scratch-reusing form, including
// in-place (out aliasing xs) operation and embedded zeros.
func TestBatchInverseInto(t *testing.T) {
	xs := make([]Fp, 9)
	for i := range xs {
		if i == 4 {
			continue // leave a zero in the middle
		}
		x, err := RandFp(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		xs[i].Set(x)
	}
	want := BatchInverseFp(xs)
	out := make([]Fp, len(xs))
	prefix := make([]Fp, len(xs))
	BatchInverseFpInto(out, xs, prefix)
	for i := range xs {
		if !out[i].Equal(&want[i]) {
			t.Fatalf("BatchInverseFpInto[%d] diverged", i)
		}
	}
	// In-place: out aliases xs.
	inPlace := make([]Fp, len(xs))
	copy(inPlace, xs)
	BatchInverseFpInto(inPlace, inPlace, prefix)
	for i := range xs {
		if !inPlace[i].Equal(&want[i]) {
			t.Fatalf("in-place BatchInverseFpInto[%d] diverged", i)
		}
	}

	xs2 := make([]Fp2, 7)
	for i := range xs2 {
		if i == 2 {
			continue
		}
		x, err := RandFp2(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		xs2[i].Set(x)
	}
	want2 := BatchInverseFp2(xs2)
	out2 := make([]Fp2, len(xs2))
	prefix2 := make([]Fp2, len(xs2))
	BatchInverseFp2Into(out2, xs2, prefix2)
	for i := range xs2 {
		if !out2[i].Equal(&want2[i]) {
			t.Fatalf("BatchInverseFp2Into[%d] diverged", i)
		}
	}
	// One element inverts directly; zero still maps to zero.
	for _, x := range []Fp2{xs2[0], {}} {
		var got, want [1]Fp2
		BatchInverseFp2Into(got[:], []Fp2{x}, make([]Fp2, 1))
		want[0].Inverse(&x)
		if !got[0].Equal(&want[0]) {
			t.Fatalf("one-element BatchInverseFp2Into(%v) diverged from Inverse", x)
		}
	}
}

// FuzzFpInverse differentially tests the Fermat addition-chain
// inversion against big.Int.ModInverse on arbitrary field elements.
func FuzzFpInverse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(new(big.Int).Sub(p, bigOne).Bytes())
	f.Add(new(big.Int).Add(p, bigOne).Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fpFromBytes(data)
		var got Fp
		got.Inverse(x)
		if x.IsZero() {
			if !got.IsZero() {
				t.Fatal("Inverse(0) != 0")
			}
			return
		}
		want := new(big.Int).ModInverse(x.Big(), p)
		if got.Big().Cmp(want) != 0 {
			t.Fatalf("Fermat inverse diverged from ModInverse: x=%v got=%v want=%v", x, &got, want)
		}
		var vt Fp
		vt.InverseVartime(x)
		if !vt.Equal(&got) {
			t.Fatalf("InverseVartime diverged from Inverse: x=%v got=%v want=%v", x, &vt, &got)
		}
		var prod Fp
		prod.Mul(&got, x)
		if !prod.IsOne() {
			t.Fatalf("x·x⁻¹ != 1: x=%v", x)
		}
	})
}
