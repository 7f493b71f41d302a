package hpske

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/bn254"
	"repro/internal/group"
)

func codecScheme(t *testing.T) (*Scheme[*bn254.G2], Key, []*Ciphertext[*bn254.G2]) {
	t.Helper()
	s, err := New[*bn254.G2](group.G2{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*Ciphertext[*bn254.G2], 3)
	for i := range cts {
		m, err := s.G.Rand(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if cts[i], err = s.Encrypt(rand.Reader, key, m); err != nil {
			t.Fatal(err)
		}
	}
	return s, key, cts
}

func TestEncodeListCompressedRoundTrip(t *testing.T) {
	s, _, cts := codecScheme(t)
	enc, err := EncodeList(s, cts)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 4 + 1 + 4 + len(cts)*(s.Kappa+1)*bn254.G2BytesCompressed
	if len(enc) != wantLen {
		t.Fatalf("compressed list is %d bytes, want %d", len(enc), wantLen)
	}
	got, err := DecodeList(s, enc, len(cts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cts {
		if !s.G.Equal(got[i].Payload, cts[i].Payload) {
			t.Fatalf("ciphertext %d payload changed", i)
		}
		for j := range cts[i].Coins {
			if !s.G.Equal(got[i].Coins[j], cts[i].Coins[j]) {
				t.Fatalf("ciphertext %d coin %d changed", i, j)
			}
		}
	}
}

// TestEncodeListGTStaysLegacy checks that GT, which has no compact
// codec, keeps the count ‖ raw layout byte for byte.
func TestEncodeListGTStaysLegacy(t *testing.T) {
	s, err := New[*bn254.GT](group.GT{}, 2)
	if err != nil {
		t.Fatal(err)
	}
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
	enc, err := EncodeList(s, []*Ciphertext[*bn254.GT]{ct})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := s.Bytes(ct)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte{0, 0, 0, 1}, raw...)
	if !bytes.Equal(enc, legacy) {
		t.Fatal("GT list encoding is not count ‖ raw")
	}
	if _, err := DecodeList(s, enc, 1); err != nil {
		t.Fatalf("GT decode: %v", err)
	}
}

func TestDecodeListRejects(t *testing.T) {
	s, _, cts := codecScheme(t)
	enc, err := EncodeList(s, cts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeList(s, enc, len(cts)+1); err == nil {
		t.Fatal("wrong count accepted")
	}
	if _, err := DecodeList(s, enc[:len(enc)-1], len(cts)); err == nil {
		t.Fatal("truncated compressed list accepted")
	}
	if _, err := DecodeList(s, append(enc, 0), len(cts)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Corrupt a compressed point body: the x no longer decompresses (or
	// decodes to a different valid point, which the flag byte check in
	// SetBytesCompressed still bounds); flipping the flag to an unknown
	// value must always fail.
	bad := append([]byte(nil), enc...)
	bad[9] = 0x7f // first element's flag byte (4 sentinel + 1 codec + 4 count)
	if _, err := DecodeList(s, bad, len(cts)); err == nil {
		t.Fatal("unknown point flag accepted")
	}
	// Unknown codec byte.
	bad = append([]byte(nil), enc...)
	bad[4] = 9
	if _, err := DecodeList(s, bad, len(cts)); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
