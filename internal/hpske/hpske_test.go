package hpske

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/scalar"
)

const testKappa = 3

func newG2Scheme(t *testing.T) *Scheme[*bn254.G2] {
	t.Helper()
	s, err := New[*bn254.G2](group.G2{}, testKappa)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newGTScheme(t *testing.T) *Scheme[*bn254.GT] {
	t.Helper()
	s, err := New[*bn254.GT](group.GT{}, testKappa)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadKappa(t *testing.T) {
	if _, err := New[*bn254.G2](group.G2{}, 0); err == nil {
		t.Fatal("accepted κ = 0")
	}
}

func TestEncryptDecryptRoundTripG2(t *testing.T) {
	s := newG2Scheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.G.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(rand.Reader, key, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !s.G.Equal(got, m) {
		t.Fatal("decryption did not recover plaintext")
	}
}

func TestEncryptDecryptRoundTripGT(t *testing.T) {
	s := newGTScheme(t)
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.G.Rand(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s.Encrypt(rand.Reader, key, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !s.G.Equal(got, m) {
		t.Fatal("GT decryption did not recover plaintext")
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	other, _ := s.GenKey(rand.Reader)
	m, _ := s.G.Rand(rand.Reader)
	ct, err := s.Encrypt(rand.Reader, key, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(other, ct)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.Equal(got, m) {
		t.Fatal("wrong key decrypted correctly (vanishing probability)")
	}
}

// TestProductHomomorphism checks Definition 5.1, property 1:
// Dec'(c0·c1) = m0·m1.
func TestProductHomomorphism(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	m0, _ := s.G.Rand(rand.Reader)
	m1, _ := s.G.Rand(rand.Reader)
	c0, err := s.Encrypt(rand.Reader, key, m0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Encrypt(rand.Reader, key, m1)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := s.Mul(c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Decrypt(key, prod)
	if err != nil {
		t.Fatal(err)
	}
	want := s.G.Mul(m0, m1)
	if !s.G.Equal(got, want) {
		t.Fatal("product homomorphism broken")
	}
}

func TestDivAndInvHomomorphism(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	m0, _ := s.G.Rand(rand.Reader)
	m1, _ := s.G.Rand(rand.Reader)
	c0, _ := s.Encrypt(rand.Reader, key, m0)
	c1, _ := s.Encrypt(rand.Reader, key, m1)
	quot, err := s.Div(c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Decrypt(key, quot)
	want := s.G.Mul(m0, s.G.Inv(m1))
	if !s.G.Equal(got, want) {
		t.Fatal("quotient homomorphism broken")
	}
}

// TestScalarPowerHomomorphism checks the homomorphism P2 relies on:
// Enc'(m)^k decrypts to m^k.
func TestScalarPowerHomomorphism(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	m, _ := s.G.Rand(rand.Reader)
	ct, _ := s.Encrypt(rand.Reader, key, m)
	k, err := scalar.Rand(nil)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := s.Pow(ct, k)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Decrypt(key, pk)
	want := s.G.Exp(m, k)
	if !s.G.Equal(got, want) {
		t.Fatal("scalar-power homomorphism broken")
	}
}

// TestP2Expression exercises the exact algebra P2 computes in the
// refresh protocol: Π f'ᵢ^s'ᵢ / fᵢ^sᵢ · fΦ decrypts to Π a'ᵢ^s'ᵢ/aᵢ^sᵢ·Φ.
func TestP2Expression(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	const ell = 4
	g := s.G
	as := make([]*bn254.G2, ell)
	aps := make([]*bn254.G2, ell)
	fs := make([]*Ciphertext[*bn254.G2], ell)
	fps := make([]*Ciphertext[*bn254.G2], ell)
	for i := 0; i < ell; i++ {
		as[i], _ = g.Rand(rand.Reader)
		aps[i], _ = g.Rand(rand.Reader)
		fs[i], _ = s.Encrypt(rand.Reader, key, as[i])
		fps[i], _ = s.Encrypt(rand.Reader, key, aps[i])
	}
	phi, _ := g.Rand(rand.Reader)
	fPhi, _ := s.Encrypt(rand.Reader, key, phi)
	ss, _ := scalar.RandVector(nil, ell)
	sps, _ := scalar.RandVector(nil, ell)

	acc := s.One()
	for i := 0; i < ell; i++ {
		up, _ := s.Pow(fps[i], sps[i])
		down, _ := s.Pow(fs[i], ss[i])
		term, _ := s.Div(up, down)
		acc, _ = s.Mul(acc, term)
	}
	acc, _ = s.Mul(acc, fPhi)

	got, _ := s.Decrypt(key, acc)
	want := g.Identity()
	for i := 0; i < ell; i++ {
		want = g.Mul(want, g.Exp(aps[i], sps[i]))
		want = g.Mul(want, g.Inv(g.Exp(as[i], ss[i])))
	}
	want = g.Mul(want, phi)
	if !g.Equal(got, want) {
		t.Fatal("P2 refresh expression does not decrypt correctly")
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	m, _ := s.G.Rand(rand.Reader)
	ct, _ := s.Encrypt(rand.Reader, key, m)
	rr, err := s.Rerandomize(rand.Reader, key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if s.G.Equal(rr.Payload, ct.Payload) {
		t.Fatal("rerandomization left payload unchanged")
	}
	got, _ := s.Decrypt(key, rr)
	if !s.G.Equal(got, m) {
		t.Fatal("rerandomization changed plaintext")
	}
}

func TestReEncrypt(t *testing.T) {
	s := newG2Scheme(t)
	oldKey, _ := s.GenKey(rand.Reader)
	newKey, _ := s.GenKey(rand.Reader)
	m, _ := s.G.Rand(rand.Reader)
	ct, _ := s.Encrypt(rand.Reader, oldKey, m)
	ct2, err := s.ReEncrypt(rand.Reader, oldKey, newKey, ct)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Decrypt(newKey, ct2)
	if !s.G.Equal(got, m) {
		t.Fatal("re-encryption lost plaintext")
	}
	// Old key must no longer decrypt.
	wrong, _ := s.Decrypt(oldKey, ct2)
	if s.G.Equal(wrong, m) {
		t.Fatal("old key still decrypts after rotation")
	}
}

// TestTransport checks the pairing-transport homomorphism: transporting
// Enc'_{G2}(m) with A yields a valid Enc'_{GT}(e(A,m)) under the same key.
func TestTransport(t *testing.T) {
	sG2 := newG2Scheme(t)
	sGT := newGTScheme(t)
	key, _ := sG2.GenKey(rand.Reader)
	m, _ := sG2.G.Rand(rand.Reader)
	ct, _ := sG2.Encrypt(rand.Reader, key, m)

	a, _, err := bn254.RandG1(nil)
	if err != nil {
		t.Fatal(err)
	}
	tct := TransportMany(nil, a, []*Ciphertext[*bn254.G2]{ct})[0]
	got, err := sGT.Decrypt(key, tct)
	if err != nil {
		t.Fatal(err)
	}
	want := bn254.Pair(a, m)
	if !got.Equal(want) {
		t.Fatal("transported ciphertext does not decrypt to e(A, m)")
	}
}

func TestCiphertextBytesRoundTrip(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	m, _ := s.G.Rand(rand.Reader)
	ct, _ := s.Encrypt(rand.Reader, key, m)
	enc, err := s.Bytes(ct)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.FromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Decrypt(key, back)
	if !s.G.Equal(got, m) {
		t.Fatal("bytes round trip lost plaintext")
	}
	if _, err := s.FromBytes(enc[:len(enc)-1]); err == nil {
		t.Fatal("FromBytes accepted truncated input")
	}
}

func TestLengthValidation(t *testing.T) {
	s := newG2Scheme(t)
	key, _ := s.GenKey(rand.Reader)
	short := key[:testKappa-1]
	m, _ := s.G.Rand(rand.Reader)
	if _, err := s.Encrypt(rand.Reader, short, m); err == nil {
		t.Fatal("accepted short key")
	}
	ct, _ := s.Encrypt(rand.Reader, key, m)
	bad := ct.Clone()
	bad.Coins = bad.Coins[:testKappa-1]
	if _, err := s.Decrypt(key, bad); err == nil {
		t.Fatal("accepted short ciphertext")
	}
	if _, err := s.Decrypt(key, nil); err == nil {
		t.Fatal("accepted nil ciphertext")
	}
	if _, err := s.Pow(bad, big.NewInt(2)); err == nil {
		t.Fatal("Pow accepted short ciphertext")
	}
}
