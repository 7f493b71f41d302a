package hpske

import (
	"fmt"

	"repro/internal/group"
	"repro/internal/wire"
)

// List layouts. The layout is a property of the element group, never
// of the payload: a group with a compact codec (group.Compressor: x
// coordinate + parity flag — G1 and G2) is framed as
//
//	sentinel uint32 = 0xFFFFFFFF
//	codec    uint8  = 2
//	count    uint32
//	body     count × (κ+1) × CompressedLen bytes
//
// and a group without one (GT) as a uint32 count followed by count
// fixed-size raw ciphertext encodings. The sentinel and codec byte are
// kept so the bytes match what earlier releases wrote for G1/G2 lists;
// a G1/G2 payload that does not open with them is rejected.
const (
	// codecCompressed identifies the point-compressed list layout.
	codecCompressed = byte(2)

	// codecSentinel opens a compressed list in place of a count.
	codecSentinel = uint32(0xFFFFFFFF)
)

// compressor returns the group's optional compact codec, or nil.
func compressor[E any](s *Scheme[E]) group.Compressor[E] {
	if c, ok := s.G.(group.Compressor[E]); ok {
		return c
	}
	return nil
}

// EncodeList serializes a list of ciphertexts for transmission as a
// protocol frame payload, in the layout the scheme's group selects:
// point-compressed for G1/G2, count ‖ raw for GT.
func EncodeList[E any](s *Scheme[E], cts []*Ciphertext[E]) ([]byte, error) {
	var b wire.Builder
	comp := compressor(s)
	if comp == nil {
		b.AppendUint32(uint32(len(cts)))
		for i, ct := range cts {
			enc, err := s.Bytes(ct)
			if err != nil {
				return nil, fmt.Errorf("hpske: encoding ciphertext %d: %w", i, err)
			}
			b.AppendRaw(enc)
		}
		return b.Bytes(), nil
	}
	b.AppendUint32(codecSentinel)
	b.AppendRaw([]byte{codecCompressed})
	b.AppendUint32(uint32(len(cts)))
	for i, ct := range cts {
		if err := s.checkCT(ct); err != nil {
			return nil, fmt.Errorf("hpske: encoding ciphertext %d: %w", i, err)
		}
		for _, c := range ct.Coins {
			b.AppendRaw(comp.BytesCompressed(c))
		}
		b.AppendRaw(comp.BytesCompressed(ct.Payload))
	}
	return b.Bytes(), nil
}

// DecodeList parses a list written by EncodeList for the same group,
// enforcing an exact expected count and rejecting trailing bytes.
func DecodeList[E any](s *Scheme[E], payload []byte, want int) ([]*Ciphertext[E], error) {
	p := wire.NewParser(payload)
	comp := compressor(s)
	if comp == nil {
		return decodeListRaw(s, p, want)
	}
	sentinel, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	codecRaw, err := p.Raw(1)
	if err != nil {
		return nil, err
	}
	if sentinel != codecSentinel || codecRaw[0] != codecCompressed {
		return nil, fmt.Errorf("hpske: %s list does not open with the compressed-list header", s.G.Name())
	}
	n, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) != want {
		return nil, fmt.Errorf("hpske: got %d ciphertexts, want %d", n, want)
	}
	el := comp.CompressedLen()
	out := make([]*Ciphertext[E], n)
	for i := range out {
		ct := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
		for j := 0; j < s.Kappa; j++ {
			raw, err := p.Raw(el)
			if err != nil {
				return nil, err
			}
			e, err := comp.FromBytesCompressed(raw)
			if err != nil {
				return nil, fmt.Errorf("hpske: decoding ciphertext %d coin %d: %w", i, j, err)
			}
			ct.Coins[j] = e
		}
		raw, err := p.Raw(el)
		if err != nil {
			return nil, err
		}
		e, err := comp.FromBytesCompressed(raw)
		if err != nil {
			return nil, fmt.Errorf("hpske: decoding ciphertext %d payload: %w", i, err)
		}
		ct.Payload = e
		out[i] = ct
	}
	if !p.Done() {
		return nil, fmt.Errorf("hpske: %d trailing bytes in ciphertext list", p.Remaining())
	}
	return out, nil
}

// decodeListRaw parses a count ‖ raw list for a group without a
// compact codec.
func decodeListRaw[E any](s *Scheme[E], p *wire.Parser, want int) ([]*Ciphertext[E], error) {
	n, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) != want {
		return nil, fmt.Errorf("hpske: got %d ciphertexts, want %d", n, want)
	}
	size := (s.Kappa + 1) * s.G.ElementLen()
	out := make([]*Ciphertext[E], n)
	for i := range out {
		raw, err := p.Raw(size)
		if err != nil {
			return nil, err
		}
		ct, err := s.FromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("hpske: decoding ciphertext %d: %w", i, err)
		}
		out[i] = ct
	}
	if !p.Done() {
		return nil, fmt.Errorf("hpske: %d trailing bytes in ciphertext list", p.Remaining())
	}
	return out, nil
}
