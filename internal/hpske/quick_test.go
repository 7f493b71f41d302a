package hpske

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/bn254"
	"repro/internal/scalar"
)

// Property-based tests over the HPSKE algebra: for random keys, coins,
// messages and scalars, the homomorphisms of Definition 5.1 (and the two
// extensions the protocols rely on) must hold identically.

// quickCfg keeps group-operation-heavy property tests affordable.
var quickCfg = &quick.Config{MaxCount: 8}

func TestQuickProductPowerComposition(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed1, seed2 [8]byte) bool {
		m1 := bn254.HashToG2("q1", seed1[:])
		m2 := bn254.HashToG2("q2", seed2[:])
		c1, err := s.Encrypt(rand.Reader, key, m1)
		if err != nil {
			return false
		}
		c2, err := s.Encrypt(rand.Reader, key, m2)
		if err != nil {
			return false
		}
		k1 := new(big.Int).SetBytes(seed1[:])
		k2 := new(big.Int).SetBytes(seed2[:])
		// Dec((c1^k1 · c2^k2)) == m1^k1 · m2^k2.
		p1, err := s.Pow(c1, k1)
		if err != nil {
			return false
		}
		p2, err := s.Pow(c2, k2)
		if err != nil {
			return false
		}
		prod, err := s.Mul(p1, p2)
		if err != nil {
			return false
		}
		got, err := s.Decrypt(key, prod)
		if err != nil {
			return false
		}
		g := s.G
		want := g.Mul(g.Exp(m1, k1), g.Exp(m2, k2))
		return g.Equal(got, want)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTransportCommutesWithHomomorphisms(t *testing.T) {
	// Transport(A, c1·c2) == Transport(A, c1)·Transport(A, c2): the
	// pairing transport is a homomorphism of HPSKE ciphertexts.
	sG2 := newG2Scheme(t)
	sGT := newGTScheme(t)
	key, err := sG2.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed1, seed2 [8]byte) bool {
		m1 := bn254.HashToG2("tq1", seed1[:])
		m2 := bn254.HashToG2("tq2", seed2[:])
		c1, err := sG2.Encrypt(rand.Reader, key, m1)
		if err != nil {
			return false
		}
		c2, err := sG2.Encrypt(rand.Reader, key, m2)
		if err != nil {
			return false
		}
		a := bn254.HashToG1("tqA", append(seed1[:], seed2[:]...))

		prodG2, err := sG2.Mul(c1, c2)
		if err != nil {
			return false
		}
		lhs := TransportMany(nil, a, []*Ciphertext[*bn254.G2]{prodG2})[0]

		ts := TransportMany(nil, a, []*Ciphertext[*bn254.G2]{c1, c2})
		rhs, err := sGT.Mul(ts[0], ts[1])
		if err != nil {
			return false
		}
		l, err := sGT.Decrypt(key, lhs)
		if err != nil {
			return false
		}
		r, err := sGT.Decrypt(key, rhs)
		if err != nil {
			return false
		}
		return l.Equal(r)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReEncryptChain(t *testing.T) {
	// A chain of key rotations never loses the plaintext.
	s := newG2Scheme(t)
	f := func(seed [8]byte, hops uint8) bool {
		m := bn254.HashToG2("rq", seed[:])
		key, err := s.GenKey(rand.Reader)
		if err != nil {
			return false
		}
		ct, err := s.Encrypt(rand.Reader, key, m)
		if err != nil {
			return false
		}
		n := int(hops%3) + 1
		for i := 0; i < n; i++ {
			next, err := s.GenKey(rand.Reader)
			if err != nil {
				return false
			}
			ct, err = s.ReEncrypt(rand.Reader, key, next, ct)
			if err != nil {
				return false
			}
			key = next
		}
		got, err := s.Decrypt(key, ct)
		if err != nil {
			return false
		}
		return s.G.Equal(got, m)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecodeList(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint8) bool {
		count := int(n%4) + 1
		cts := make([]*Ciphertext[*bn254.G2], count)
		for i := range cts {
			m, err := s.G.Rand(rand.Reader)
			if err != nil {
				return false
			}
			ct, err := s.Encrypt(rand.Reader, key, m)
			if err != nil {
				return false
			}
			cts[i] = ct
		}
		raw, err := EncodeList(s, cts)
		if err != nil {
			return false
		}
		back, err := DecodeList(s, raw, count)
		if err != nil {
			return false
		}
		for i := range cts {
			a, err := s.Decrypt(key, cts[i])
			if err != nil {
				return false
			}
			b, err := s.Decrypt(key, back[i])
			if err != nil {
				return false
			}
			if !s.G.Equal(a, b) {
				return false
			}
		}
		// Wrong expected count must fail.
		if _, err := DecodeList(s, raw, count+1); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickScalarVectorRoundTrip double-checks the scalar codec under
// the adversarial inputs quick generates.
func TestQuickScalarVectorRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		v, err := scalar.RandVector(rand.Reader, int(n%6)+1)
		if err != nil {
			return false
		}
		back, err := scalar.FromBytes(scalar.Bytes(v))
		if err != nil || len(back) != len(v) {
			return false
		}
		for i := range v {
			if !scalar.Equal(back[i], v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
