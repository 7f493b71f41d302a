package hpske

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/bn254"
	"repro/internal/scalar"
)

func randG2Ciphertext(t *testing.T, s *Scheme[*bn254.G2], key Key) *Ciphertext[*bn254.G2] {
	t.Helper()
	m, err := s.G.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(rand.Reader, key, m)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func ctEqual[E any](s *Scheme[E], a, b *Ciphertext[E]) bool {
	if !s.G.Equal(a.Payload, b.Payload) {
		return false
	}
	for j := range a.Coins {
		if !s.G.Equal(a.Coins[j], b.Coins[j]) {
			return false
		}
	}
	return true
}

func TestTransportMatchesReference(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sGT := newGTScheme(t)
	for i := 0; i < 5; i++ {
		a, _, err := bn254.RandG1(nil)
		if err != nil {
			t.Fatal(err)
		}
		ct := randG2Ciphertext(t, s, key)
		fast := TransportMany(nil, a, []*Ciphertext[*bn254.G2]{ct})[0]
		slow := TransportReference(nil, a, ct)
		if !ctEqual(sGT, fast, slow) {
			t.Fatalf("iteration %d: TransportMany of one ciphertext != TransportReference", i)
		}
	}
}

func TestTransportManyMatchesTransport(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sGT := newGTScheme(t)
	a, _, err := bn254.RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*Ciphertext[*bn254.G2], 4)
	for i := range cts {
		cts[i] = randG2Ciphertext(t, s, key)
	}
	got := TransportMany(nil, a, cts)
	if len(got) != len(cts) {
		t.Fatalf("TransportMany returned %d ciphertexts, want %d", len(got), len(cts))
	}
	for i := range cts {
		want := TransportReference(nil, a, cts[i])
		if !ctEqual(sGT, got[i], want) {
			t.Fatalf("ciphertext %d: TransportMany != TransportReference", i)
		}
	}
	if out := TransportMany(nil, a, nil); len(out) != 0 {
		t.Fatal("TransportMany of no ciphertexts must be empty")
	}
}

// TransportManyPre must agree with its cold twin for any G1 argument —
// the tables only cache the P-independent half of the Miller loops.
func TestTransportPreMatchesTransport(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sGT := newGTScheme(t)
	ct := randG2Ciphertext(t, s, key)
	tts := PrecomputeTransportMany([]*Ciphertext[*bn254.G2]{ct})
	for i := 0; i < 5; i++ {
		a, _, err := bn254.RandG1(nil)
		if err != nil {
			t.Fatal(err)
		}
		fast := TransportManyPre(nil, a, tts)[0]
		slow := TransportReference(nil, a, ct)
		if !ctEqual(sGT, fast, slow) {
			t.Fatalf("iteration %d: TransportManyPre of one table != TransportReference", i)
		}
	}
}

func TestTransportManyPreMatchesTransportMany(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sGT := newGTScheme(t)
	cts := make([]*Ciphertext[*bn254.G2], 3)
	for i := range cts {
		cts[i] = randG2Ciphertext(t, s, key)
	}
	tts := PrecomputeTransportMany(cts)
	a, _, err := bn254.RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := TransportManyPre(nil, a, tts)
	want := TransportMany(nil, a, cts)
	if len(got) != len(want) {
		t.Fatalf("TransportManyPre returned %d ciphertexts, want %d", len(got), len(want))
	}
	for i := range got {
		if !ctEqual(sGT, got[i], want[i]) {
			t.Fatalf("ciphertext %d: TransportManyPre != TransportMany", i)
		}
	}
	if out := TransportManyPre(nil, a, nil); len(out) != 0 {
		t.Fatal("TransportManyPre of no tables must be empty")
	}
}

// PrecomputeTransportMany over a slice must be an exact twin of a loop
// of one-element calls — the flattened parallel fan-out only changes
// scheduling, never the tables — proved by transporting through both
// table sets and comparing the resulting ciphertexts.
func TestPrecomputeTransportManyMatchesLoop(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sGT := newGTScheme(t)
	cts := make([]*Ciphertext[*bn254.G2], 4)
	loop := make([]*TransportTable, len(cts))
	for i := range cts {
		cts[i] = randG2Ciphertext(t, s, key)
		loop[i] = PrecomputeTransportMany(cts[i : i+1])[0]
	}
	flat := PrecomputeTransportMany(cts)
	if len(flat) != len(loop) {
		t.Fatalf("PrecomputeTransportMany returned %d tables, want %d", len(flat), len(loop))
	}
	a, _, err := bn254.RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := TransportManyPre(nil, a, flat)
	want := TransportManyPre(nil, a, loop)
	for i := range got {
		if !ctEqual(sGT, got[i], want[i]) {
			t.Fatalf("ciphertext %d: flattened tables disagree with per-ct tables", i)
		}
	}
	if out := PrecomputeTransportMany(nil); len(out) != 0 {
		t.Fatal("PrecomputeTransportMany of no ciphertexts must be empty")
	}
}

// LinComb must agree with the composition of Pow and Mul it replaces,
// and must still decrypt to Π mᵢ^kᵢ.
func TestLinCombMatchesPowMulChain(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 4; n++ {
		cts := make([]*Ciphertext[*bn254.G2], n)
		ks := make([]*big.Int, n)
		ms := make([]*bn254.G2, n)
		for i := range cts {
			m, err := s.G.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = m
			ct, err := s.Encrypt(rand.Reader, key, m)
			if err != nil {
				t.Fatal(err)
			}
			cts[i] = ct
			k, err := scalar.Rand(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if i%3 == 1 {
				k.Neg(k)
			}
			if i%3 == 2 {
				k.SetInt64(0)
			}
			ks[i] = k
		}
		got, err := s.LinComb(cts, ks)
		if err != nil {
			t.Fatal(err)
		}
		want := s.One()
		for i := range cts {
			p, err := s.Pow(cts[i], ks[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err = s.Mul(want, p)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !ctEqual(s, got, want) {
			t.Fatalf("n=%d: LinComb != Π Pow/Mul chain", n)
		}
		dec, err := s.Decrypt(key, got)
		if err != nil {
			t.Fatal(err)
		}
		wantM := s.G.Identity()
		for i := range ms {
			wantM = s.G.Mul(wantM, s.G.Exp(ms[i], ks[i]))
		}
		if !s.G.Equal(dec, wantM) {
			t.Fatalf("n=%d: LinComb ciphertext decrypts wrong", n)
		}
	}
}

func TestLinCombLengthMismatch(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct := randG2Ciphertext(t, s, key)
	if _, err := s.LinComb([]*Ciphertext[*bn254.G2]{ct}, nil); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}
