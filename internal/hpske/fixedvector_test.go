package hpske

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"testing"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/wire"
)

// Fixed-vector pins for the list layouts. Every list below is built
// from fixed small multiples of the generators under a fixed key, so
// its encoding is a constant; the digests were recorded from the
// encoder that shipped the v2 layout. A digest match proves the
// current encoder still writes the bytes earlier releases wrote (and
// decoded), and the round trip proves the current decoder reads them.
//
// Layouts: groups with a compressed codec (G1, G2) write
// FF FF FF FF ‖ 02 ‖ count ‖ compressed points; GT writes count ‖ raw.

// fixedList encrypts msgs under a fixed key with fixed coins: coin j of
// ciphertext i is base^(10i+j+2).
func fixedList[E any](t *testing.T, g group.Group[E], base E, n int) (*Scheme[E], []*Ciphertext[E]) {
	t.Helper()
	const kappa = 2
	s, err := New[E](g, kappa)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{big.NewInt(3), big.NewInt(5)}
	cts := make([]*Ciphertext[E], n)
	for i := range cts {
		coins := make([]E, kappa)
		for j := range coins {
			coins[j] = g.Exp(base, big.NewInt(int64(10*i+j+2)))
		}
		m := g.Exp(base, big.NewInt(int64(100+i)))
		if cts[i], err = s.EncryptWithCoins(key, m, coins); err != nil {
			t.Fatal(err)
		}
	}
	return s, cts
}

// checkFixedList encodes cts, checks the opening bytes and the digest,
// and decodes the result back to the same ciphertexts.
func checkFixedList[E any](t *testing.T, s *Scheme[E], cts []*Ciphertext[E], prefix []byte, wantLen int, digest string) {
	t.Helper()
	enc, err := EncodeList(s, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatalf("%s list opens with % x, want % x", s.G.Name(), enc[:len(prefix)], prefix)
	}
	if len(enc) != wantLen {
		t.Fatalf("%s list is %d bytes, want %d", s.G.Name(), len(enc), wantLen)
	}
	if got := sha256.Sum256(enc); hex.EncodeToString(got[:]) != digest {
		t.Fatalf("%s list digest %x, want %s", s.G.Name(), got, digest)
	}
	got, err := DecodeList(s, enc, len(cts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cts {
		if !s.G.Equal(got[i].Payload, cts[i].Payload) {
			t.Fatalf("%s ciphertext %d payload changed", s.G.Name(), i)
		}
		for j := range cts[i].Coins {
			if !s.G.Equal(got[i].Coins[j], cts[i].Coins[j]) {
				t.Fatalf("%s ciphertext %d coin %d changed", s.G.Name(), i, j)
			}
		}
	}
}

func TestListFixedVectors(t *testing.T) {
	v2 := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0, 0, 0, 3}

	s1, c1 := fixedList[*bn254.G1](t, group.G1{}, bn254.G1Generator(), 3)
	checkFixedList(t, s1, c1, v2, 9+3*3*bn254.G1BytesCompressed,
		"1e5a0b99a6cf829718eb6c021f3371ed1cc3fb95a40ed245b8d8fe23f4e94712")

	s2, c2 := fixedList[*bn254.G2](t, group.G2{}, bn254.G2Generator(), 3)
	checkFixedList(t, s2, c2, v2, 9+3*3*bn254.G2BytesCompressed,
		"4063477f0b2246777e78ba7ad943c013c30c7e128a5309db00074b570c36e56b")

	sT, cT := fixedList[*bn254.GT](t, group.GT{}, bn254.GTGenerator(), 2)
	checkFixedList(t, sT, cT, []byte{0, 0, 0, 2}, 4+2*3*bn254.GTBytes,
		"14c8c9226605f3208826d476b30cc9de8d705681e4b39ad5878f6672aeb56c2d")
}

// TestDecodeListRejectsRawG2 checks that a count ‖ raw-points list for
// a group with a compressed codec is an error, never a value: the
// layout is chosen by the group, not guessed from the payload.
func TestDecodeListRejectsRawG2(t *testing.T) {
	s, cts := fixedList[*bn254.G2](t, group.G2{}, bn254.G2Generator(), 3)
	var b wire.Builder
	b.AppendUint32(uint32(len(cts)))
	for _, ct := range cts {
		raw, err := s.Bytes(ct)
		if err != nil {
			t.Fatal(err)
		}
		b.AppendRaw(raw)
	}
	if got, err := DecodeList(s, b.Bytes(), len(cts)); err == nil {
		t.Fatalf("count‖raw G2 list decoded to %d ciphertexts, want an error", len(got))
	}
}
