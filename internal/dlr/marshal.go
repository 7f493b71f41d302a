package dlr

import (
	"fmt"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/opcount"
	"repro/internal/params"
	"repro/internal/pss"
	"repro/internal/scalar"
	"repro/internal/wire"
)

// This file serializes key material and device states so that the cmd/
// tools can generate keys once and run the devices as separate
// processes.

// MarshalPublicKey encodes a public key with its parameters.
func MarshalPublicKey(pk *PublicKey) []byte {
	var b wire.Builder
	b.AppendUint32(uint32(pk.Params.N))
	b.AppendUint32(uint32(pk.Params.Lambda))
	b.AppendRaw(pk.E.Bytes())
	return b.Bytes()
}

// UnmarshalPublicKey decodes a public key.
func UnmarshalPublicKey(raw []byte) (*PublicKey, error) {
	p := wire.NewParser(raw)
	n, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	lambda, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	prm, err := params.New(int(n), int(lambda))
	if err != nil {
		return nil, err
	}
	eRaw, err := p.Raw(bn254.GTBytes)
	if err != nil {
		return nil, err
	}
	e, err := new(bn254.GT).SetBytes(eRaw)
	if err != nil {
		return nil, err
	}
	if !p.Done() {
		return nil, fmt.Errorf("dlr: trailing bytes in public key")
	}
	return &PublicKey{E: e, Params: prm}, nil
}

// Marshal encodes P1's full state (mode, period key, plaintext share in
// ModeBasic, encrypted share).
func (p *P1) Marshal() ([]byte, error) {
	var b wire.Builder
	b.AppendUint32(uint32(p.mode))
	b.AppendBytes(p.skcomm.Bytes())
	if p.mode == params.ModeBasic {
		sh := make([]byte, 0, (p.prm.Ell+1)*bn254.G2BytesCompressed)
		for _, a := range p.sk1.Coins {
			sh = a.AppendCompressed(sh)
		}
		sh = p.sk1.Payload.AppendCompressed(sh)
		b.AppendBytes(sh)
	} else {
		b.AppendBytes(nil)
	}
	encList := append([]*hpske.Ciphertext[*bn254.G2](nil), p.encSK1...)
	encList = append(encList, p.encPhi)
	enc, err := hpske.EncodeList(p.ssG2, encList)
	if err != nil {
		return nil, err
	}
	b.AppendBytes(enc)
	return b.Bytes(), nil
}

// UnmarshalP1 decodes a P1 state for the given public key. ctr may be
// nil.
func UnmarshalP1(pk *PublicKey, raw []byte, ctr *opcount.Counter) (*P1, error) {
	p := wire.NewParser(raw)
	modeU, err := p.Uint32()
	if err != nil {
		return nil, err
	}
	mode := params.Mode(modeU)
	skRaw, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	skcomm, err := scalar.FromBytes(skRaw)
	if err != nil {
		return nil, err
	}
	if len(skcomm) != pk.Params.Kappa {
		return nil, fmt.Errorf("dlr: skcomm has %d entries, want κ = %d", len(skcomm), pk.Params.Kappa)
	}
	shRaw, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	encRaw, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	if !p.Done() {
		return nil, fmt.Errorf("dlr: trailing bytes in P1 state")
	}

	// Build a skeleton P1 and fill it.
	skel, err := newP1Skeleton(pk, mode, ctr)
	if err != nil {
		return nil, err
	}
	skel.skcomm = hpske.Key(skcomm)

	if mode == params.ModeBasic {
		const el = bn254.G2BytesCompressed
		if len(shRaw) != (pk.Params.Ell+1)*el {
			return nil, fmt.Errorf("dlr: plaintext share is %d bytes, want %d",
				len(shRaw), (pk.Params.Ell+1)*el)
		}
		coins := make([]*bn254.G2, pk.Params.Ell)
		for i := range coins {
			pt, err := new(bn254.G2).SetBytesCompressed(shRaw[i*el : (i+1)*el])
			if err != nil {
				return nil, err
			}
			coins[i] = pt
		}
		phi, err := new(bn254.G2).SetBytesCompressed(shRaw[pk.Params.Ell*el:])
		if err != nil {
			return nil, err
		}
		skel.sk1 = &pss.Share1{Coins: coins, Payload: phi}
	} else if len(shRaw) != 0 {
		return nil, fmt.Errorf("dlr: unexpected plaintext share in optimal-rate state")
	}

	encList, err := hpske.DecodeList(skel.ssG2, encRaw, pk.Params.Ell+1)
	if err != nil {
		return nil, err
	}
	skel.encSK1 = encList[:pk.Params.Ell]
	skel.encPhi = encList[pk.Params.Ell]
	return skel, nil
}

// newP1Skeleton builds a P1 with scheme instances but no key material.
func newP1Skeleton(pk *PublicKey, mode params.Mode, ctr *opcount.Counter) (*P1, error) {
	if mode != params.ModeBasic && mode != params.ModeOptimalRate {
		return nil, fmt.Errorf("dlr: unknown mode %d", int(mode))
	}
	g2 := group.G2{Ctr: ctr}
	gt := group.GT{Ctr: ctr}
	ssG2, err := hpske.New[*bn254.G2](g2, pk.Params.Kappa)
	if err != nil {
		return nil, err
	}
	ssGT, err := hpske.New[*bn254.GT](gt, pk.Params.Kappa)
	if err != nil {
		return nil, err
	}
	return &P1{
		pk: pk, prm: pk.Params, mode: mode, ctr: ctr,
		ssG2: ssG2, ssGT: ssGT, g2: g2, gt: gt,
	}, nil
}

// Marshal encodes P2's state.
func (p *P2) Marshal() []byte {
	var b wire.Builder
	b.AppendBytes(p.sk2.Bytes())
	return b.Bytes()
}

// UnmarshalP2 decodes a P2 state for the given public key.
func UnmarshalP2(pk *PublicKey, raw []byte, ctr *opcount.Counter) (*P2, error) {
	p := wire.NewParser(raw)
	skRaw, err := p.Bytes()
	if err != nil {
		return nil, err
	}
	sk, err := scalar.FromBytes(skRaw)
	if err != nil {
		return nil, err
	}
	if len(sk) != pk.Params.Ell {
		return nil, fmt.Errorf("dlr: sk2 has %d entries, want ℓ = %d", len(sk), pk.Params.Ell)
	}
	if !p.Done() {
		return nil, fmt.Errorf("dlr: trailing bytes in P2 state")
	}
	return newP2(pk, pk.Params, ctr, sk)
}
