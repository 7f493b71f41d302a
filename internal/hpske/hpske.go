// Package hpske implements the paper's Homomorphic Proxy Secret Key
// Encryption (HPSKE, Definition 5.1) with the concrete instantiation of
// Lemma 5.2:
//
//	Gen'(1ⁿ):  skcomm = (σ1,…,σκ) ← Zrᵏ
//	Enc'(m):   (b1,…,bκ, m·Π bⱼ^σⱼ)  for oblivious random bⱼ ∈ G'
//	Dec'(c):   c0 / Π bⱼ^σⱼ
//
// The scheme is generic over the group G' (instantiated at G2 and GT;
// the paper's "HPSKE for ℓ, G, GT"). Beyond Definition 5.1's
// coordinate-wise product homomorphism, the implementation exposes the
// two further homomorphisms the DLR protocols rely on:
//
//   - scalar powers: Enc'(m)^k is a valid Enc'(m^k) (used by P2 in both
//     the decryption and refresh protocols), and
//   - pairing transport: pairing every coordinate of a G2-ciphertext
//     with a fixed A ∈ G1 yields a GT-ciphertext of e(A, m) under the
//     same key (the "reusing ciphertexts" remark of §5.2).
//
// Random coins bⱼ are sampled directly as group elements of unknown
// discrete logarithm, as §5.2 requires ("hiding discrete logs of random
// coins").
package hpske

import (
	"fmt"
	"io"
	"math/big"
	"sort"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/opcount"
	"repro/internal/par"
	"repro/internal/scalar"
)

// Key is an HPSKE secret key skcomm = (σ1,…,σκ).
//
//dlr:secret
type Key []*big.Int

// Clone returns a deep copy of the key.
func (k Key) Clone() Key { return Key(scalar.CopyVector(k)) }

// Zeroize wipes the key in place: every limb of every coordinate is
// overwritten with zero before the big.Int is reset. The refresh
// protocols call this on an outgoing key so that erased shares do not
// linger on the heap — the paper's erasure step, made observable.
func (k Key) Zeroize() {
	for _, s := range k {
		if s == nil {
			continue
		}
		limbs := s.Bits()
		for i := range limbs {
			limbs[i] = 0
		}
		s.SetInt64(0)
	}
}

// Bytes returns the canonical encoding of the key.
func (k Key) Bytes() []byte { return scalar.Bytes(k) }

// Ciphertext is an HPSKE ciphertext (b1,…,bκ, c0): Coins holds the
// randomness coordinates bⱼ and Payload the masked message c0.
type Ciphertext[E any] struct {
	Coins   []E
	Payload E
}

// Scheme is an HPSKE instance over a fixed group with key length κ.
type Scheme[E any] struct {
	G     group.Group[E]
	Kappa int
}

// New returns an HPSKE scheme over g with key length kappa.
func New[E any](g group.Group[E], kappa int) (*Scheme[E], error) {
	if kappa < 1 {
		return nil, fmt.Errorf("hpske: kappa must be ≥ 1, got %d", kappa)
	}
	return &Scheme[E]{G: g, Kappa: kappa}, nil
}

// GenKey samples a fresh secret key skcomm ← Zr^κ.
func (s *Scheme[E]) GenKey(rng io.Reader) (Key, error) {
	v, err := scalar.RandVector(rng, s.Kappa)
	if err != nil {
		return nil, fmt.Errorf("hpske: generating key: %w", err)
	}
	return Key(v), nil
}

// Encrypt encrypts m under key, sampling fresh oblivious coins.
func (s *Scheme[E]) Encrypt(rng io.Reader, key Key, m E) (*Ciphertext[E], error) {
	coins := make([]E, s.Kappa)
	for j := range coins {
		b, err := s.G.Rand(rng)
		if err != nil {
			return nil, fmt.Errorf("hpske: sampling coin %d: %w", j, err)
		}
		coins[j] = b
	}
	return s.EncryptWithCoins(key, m, coins)
}

// EncryptWithCoins encrypts m with the provided coin coordinates
// (b1,…,bκ): c0 = m·Π bⱼ^σⱼ.
func (s *Scheme[E]) EncryptWithCoins(key Key, m E, coins []E) (*Ciphertext[E], error) {
	if err := s.checkKey(key); err != nil {
		return nil, err
	}
	if len(coins) != s.Kappa {
		return nil, fmt.Errorf("hpske: %d coins, want %d", len(coins), s.Kappa)
	}
	mask, err := group.ProdExp(s.G, coins, key)
	if err != nil {
		return nil, err
	}
	ct := &Ciphertext[E]{Coins: make([]E, s.Kappa), Payload: s.G.Mul(m, mask)}
	copy(ct.Coins, coins)
	return ct, nil
}

// Decrypt recovers m = c0 / Π bⱼ^σⱼ.
func (s *Scheme[E]) Decrypt(key Key, ct *Ciphertext[E]) (E, error) {
	var zero E
	if err := s.checkKey(key); err != nil {
		return zero, err
	}
	if err := s.checkCT(ct); err != nil {
		return zero, err
	}
	mask, err := group.ProdExp(s.G, ct.Coins, key)
	if err != nil {
		return zero, err
	}
	return s.G.Mul(ct.Payload, s.G.Inv(mask)), nil
}

// One returns the trivially valid encryption of the identity with
// identity coins (useful as a multiplicative accumulator).
func (s *Scheme[E]) One() *Ciphertext[E] {
	coins := make([]E, s.Kappa)
	for j := range coins {
		coins[j] = s.G.Identity()
	}
	return &Ciphertext[E]{Coins: coins, Payload: s.G.Identity()}
}

// Mul returns the coordinate-wise product a·b — a valid encryption of
// the product of the two plaintexts (Definition 5.1, property 1).
func (s *Scheme[E]) Mul(a, b *Ciphertext[E]) (*Ciphertext[E], error) {
	if err := s.checkCT(a); err != nil {
		return nil, err
	}
	if err := s.checkCT(b); err != nil {
		return nil, err
	}
	out := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	for j := range out.Coins {
		out.Coins[j] = s.G.Mul(a.Coins[j], b.Coins[j])
	}
	out.Payload = s.G.Mul(a.Payload, b.Payload)
	return out, nil
}

// Div returns the coordinate-wise quotient a/b — a valid encryption of
// the quotient of the plaintexts.
func (s *Scheme[E]) Div(a, b *Ciphertext[E]) (*Ciphertext[E], error) {
	inv, err := s.Inv(b)
	if err != nil {
		return nil, err
	}
	return s.Mul(a, inv)
}

// Inv returns the coordinate-wise inverse — a valid encryption of the
// inverse plaintext.
func (s *Scheme[E]) Inv(a *Ciphertext[E]) (*Ciphertext[E], error) {
	if err := s.checkCT(a); err != nil {
		return nil, err
	}
	out := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	for j := range out.Coins {
		out.Coins[j] = s.G.Inv(a.Coins[j])
	}
	out.Payload = s.G.Inv(a.Payload)
	return out, nil
}

// Pow returns the coordinate-wise power a^k — a valid encryption of
// m^k with coins bⱼ^k (the scalar homomorphism used by P2).
func (s *Scheme[E]) Pow(a *Ciphertext[E], k *big.Int) (*Ciphertext[E], error) {
	if err := s.checkCT(a); err != nil {
		return nil, err
	}
	out := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	for j := range out.Coins {
		out.Coins[j] = s.G.Exp(a.Coins[j], k)
	}
	out.Payload = s.G.Exp(a.Payload, k)
	return out, nil
}

// linCombParMinExps is the total exponentiation count — terms ×
// (κ+1) coordinates — below which LinComb stays on the serial twin.
// Each coordinate is one multi-exponentiation of len(cts) terms, so
// this gates on the actual work, not the coordinate count: a 2-term
// combination at κ=2 (6 exponentiations) keeps the allocation-lean
// serial loop, while the protocol-shaped ℓ-term combinations (P2's
// Π dᵢ^sᵢ at ℓ=14, κ=2 → 45) fan out per coordinate chunk.
const linCombParMinExps = 16

// LinComb returns the coordinate-wise linear combination Π ctsᵢ^kᵢ —
// a valid encryption of Π mᵢ^kᵢ, combining properties 1 and 2 of
// Definition 5.1. This is the shape of P2's work in both the
// decryption protocol (Π dᵢ^sk2ᵢ) and the refresh protocol
// (Π f'ᵢ^s'ᵢ · fᵢ^(−sᵢ)). Each of the κ+1 coordinates is an
// independent multi-exponentiation, evaluated through the group's
// shared-doubling fast path; above the size-aware threshold the
// coordinates fan out across CPUs in contiguous chunks (one shared
// bases buffer per worker), below it the serial twin runs with a
// single reused buffer. TestLinCombParallelMatchesSerial pins the
// two paths to identical ciphertexts.
func (s *Scheme[E]) LinComb(cts []*Ciphertext[E], ks []*big.Int) (*Ciphertext[E], error) {
	if len(cts) != len(ks) {
		return nil, fmt.Errorf("hpske: LinComb length mismatch %d vs %d", len(cts), len(ks))
	}
	for _, ct := range cts {
		if err := s.checkCT(ct); err != nil {
			return nil, err
		}
	}
	if len(cts) == 0 {
		return s.One(), nil
	}
	coords := s.Kappa + 1
	chunks := par.Chunks(coords, 1)
	if len(chunks) <= 1 || len(cts)*coords < linCombParMinExps {
		return s.linCombSerial(cts, ks)
	}
	out := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	errs := make([]error, len(chunks))
	par.ForEach(len(chunks), func(ci int) {
		bases := make([]E, len(cts))
		for c := chunks[ci][0]; c < chunks[ci][1]; c++ {
			for i, ct := range cts {
				if c < s.Kappa {
					bases[i] = ct.Coins[c]
				} else {
					bases[i] = ct.Payload
				}
			}
			v, err := group.ProdExp(s.G, bases, ks)
			if err != nil {
				errs[ci] = err
				return
			}
			if c < s.Kappa {
				out.Coins[c] = v
			} else {
				out.Payload = v
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// linCombSerial is the retained serial twin of LinComb's fan-out: the
// same per-coordinate multi-exponentiations, one reused bases buffer,
// no dispatch overhead. Callers reach it through LinComb when the
// work is below linCombParMinExps or only one worker is available.
func (s *Scheme[E]) linCombSerial(cts []*Ciphertext[E], ks []*big.Int) (*Ciphertext[E], error) {
	out := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	bases := make([]E, len(cts))
	for c := 0; c <= s.Kappa; c++ {
		for i, ct := range cts {
			if c < s.Kappa {
				bases[i] = ct.Coins[c]
			} else {
				bases[i] = ct.Payload
			}
		}
		v, err := group.ProdExp(s.G, bases, ks)
		if err != nil {
			return nil, err
		}
		if c < s.Kappa {
			out.Coins[c] = v
		} else {
			out.Payload = v
		}
	}
	return out, nil
}

// Rerandomize multiplies a by a fresh encryption of the identity,
// producing an independent-looking ciphertext of the same plaintext.
func (s *Scheme[E]) Rerandomize(rng io.Reader, key Key, a *Ciphertext[E]) (*Ciphertext[E], error) {
	blind, err := s.Encrypt(rng, key, s.G.Identity())
	if err != nil {
		return nil, err
	}
	return s.Mul(a, blind)
}

// ReEncrypt transforms a ciphertext under oldKey into a fresh ciphertext
// of the same plaintext under newKey without ever materializing the
// plaintext: c0' = c0 · Π b'ⱼ^σ'ⱼ / Π bⱼ^σⱼ. This is the per-period
// skcomm rotation used by the optimal-leakage-rate mode, where P1 holds
// both keys (and never the plaintext share).
func (s *Scheme[E]) ReEncrypt(rng io.Reader, oldKey, newKey Key, a *Ciphertext[E]) (*Ciphertext[E], error) {
	if err := s.checkKey(oldKey); err != nil {
		return nil, err
	}
	if err := s.checkKey(newKey); err != nil {
		return nil, err
	}
	if err := s.checkCT(a); err != nil {
		return nil, err
	}
	oldMask, err := group.ProdExp(s.G, a.Coins, oldKey)
	if err != nil {
		return nil, err
	}
	coins := make([]E, s.Kappa)
	for j := range coins {
		b, err := s.G.Rand(rng)
		if err != nil {
			return nil, err
		}
		coins[j] = b
	}
	newMask, err := group.ProdExp(s.G, coins, newKey)
	if err != nil {
		return nil, err
	}
	payload := s.G.Mul(a.Payload, s.G.Inv(oldMask))
	payload = s.G.Mul(payload, newMask)
	return &Ciphertext[E]{Coins: coins, Payload: payload}, nil
}

// Clone deep-copies a ciphertext (elements are immutable by convention,
// so coordinate slices are the only copied state).
func (c *Ciphertext[E]) Clone() *Ciphertext[E] {
	out := &Ciphertext[E]{Coins: make([]E, len(c.Coins)), Payload: c.Payload}
	copy(out.Coins, c.Coins)
	return out
}

// Bytes encodes the ciphertext as κ+1 concatenated group elements.
func (s *Scheme[E]) Bytes(c *Ciphertext[E]) ([]byte, error) {
	if err := s.checkCT(c); err != nil {
		return nil, err
	}
	out := make([]byte, 0, (s.Kappa+1)*s.G.ElementLen())
	for _, b := range c.Coins {
		out = append(out, s.G.Bytes(b)...)
	}
	out = append(out, s.G.Bytes(c.Payload)...)
	return out, nil
}

// FromBytes decodes a ciphertext encoded by Bytes.
func (s *Scheme[E]) FromBytes(b []byte) (*Ciphertext[E], error) {
	el := s.G.ElementLen()
	want := (s.Kappa + 1) * el
	if len(b) != want {
		return nil, fmt.Errorf("hpske: ciphertext encoding %d bytes, want %d", len(b), want)
	}
	ct := &Ciphertext[E]{Coins: make([]E, s.Kappa)}
	for j := 0; j < s.Kappa; j++ {
		e, err := s.G.FromBytes(b[j*el : (j+1)*el])
		if err != nil {
			return nil, fmt.Errorf("hpske: decoding coin %d: %w", j, err)
		}
		ct.Coins[j] = e
	}
	e, err := s.G.FromBytes(b[s.Kappa*el:])
	if err != nil {
		return nil, fmt.Errorf("hpske: decoding payload: %w", err)
	}
	ct.Payload = e
	return ct, nil
}

func (s *Scheme[E]) checkKey(key Key) error {
	if len(key) != s.Kappa {
		return fmt.Errorf("hpske: key length %d, want κ = %d", len(key), s.Kappa)
	}
	return nil
}

func (s *Scheme[E]) checkCT(ct *Ciphertext[E]) error {
	if ct == nil {
		return fmt.Errorf("hpske: nil ciphertext")
	}
	if len(ct.Coins) != s.Kappa {
		return fmt.Errorf("hpske: ciphertext has %d coins, want κ = %d", len(ct.Coins), s.Kappa)
	}
	return nil
}

// TransportMany maps G2-ciphertexts under key σ to GT-ciphertexts of
// e(a, m) under the same σ, by pairing every coordinate with a:
//
//	(b1,…,bκ, m·Π bⱼ^σⱼ)  ↦  (e(a,b1),…,e(a,bκ), e(a,m)·Π e(a,bⱼ)^σⱼ).
//
// This is the "reusing ciphertexts" device of §5.2: P1 derives the
// decryption-protocol ciphertexts dᵢ from the refresh-protocol
// ciphertexts fᵢ with κ+1 pairings each and no fresh randomness. A
// single ciphertext is transported as a one-element slice.
//
// All the pairings run as one flattened PairBatch: lockstep Miller
// loops with batched line-denominator inversions (the outputs are
// distinct GT elements, so each still pays its own final
// exponentiation). When the ciphertexts are long-lived,
// PrecomputeTransportMany + TransportManyPre replaces the cold Miller
// loops with precomputed-line replays. TransportReference retains the
// one-Pair-at-a-time loop for differential testing.
func TransportMany(ctr *opcount.Counter, a *bn254.G1, cts []*Ciphertext[*bn254.G2]) []*Ciphertext[*bn254.GT] {
	var ps []*bn254.G1
	var qs []*bn254.G2
	for _, ct := range cts {
		for _, b := range ct.Coins {
			ps = append(ps, a)
			qs = append(qs, b)
		}
		ps = append(ps, a)
		qs = append(qs, ct.Payload)
	}
	gts := group.PairBatch(ctr, ps, qs)
	out := make([]*Ciphertext[*bn254.GT], len(cts))
	off := 0
	for i, ct := range cts {
		n := len(ct.Coins)
		out[i] = &Ciphertext[*bn254.GT]{Coins: gts[off : off+n], Payload: gts[off+n]}
		off += n + 1
	}
	return out
}

// TransportReference is the naive per-coordinate Pair loop
// TransportMany is differentially tested against.
func TransportReference(ctr *opcount.Counter, a *bn254.G1, ct *Ciphertext[*bn254.G2]) *Ciphertext[*bn254.GT] {
	out := &Ciphertext[*bn254.GT]{Coins: make([]*bn254.GT, len(ct.Coins))}
	for j, b := range ct.Coins {
		out.Coins[j] = group.Pair(ctr, a, b)
	}
	out.Payload = group.Pair(ctr, a, ct.Payload)
	return out
}

// TransportTable holds precomputed Miller-loop line tables for every
// coordinate of a fixed G2-ciphertext — the G2 side of the §5.2
// transport pairings, which depends only on the ciphertext. Building
// one costs κ+1 cold Miller loops' worth of G2 work; every subsequent
// transport of that ciphertext (arbitrary a) then skips all G2
// arithmetic and line inversions. This is exactly P1's situation: the
// encrypted shares fᵢ are fixed for a whole leakage period while each
// decryption request brings a fresh a = c.A.
type TransportTable struct {
	tabs []*bn254.PairingTable // coins tables, then the payload table
}

// PrecomputeTransportMany builds the transport table of every
// ciphertext in cts with one flattened parallel fan-out: all
// len(cts)×(κ+1) per-coordinate tables are independent Miller-loop
// precomputations, so scheduling them through a single par.ForEach
// keeps every core busy across ciphertext boundaries instead of
// paying a fork/join barrier per ciphertext. This is the
// background-build primitive behind next-epoch prewarming: the
// rotation pipeline builds the entire next-epoch table set in one call
// while the current epoch keeps serving. A single ciphertext's table
// is built as a one-element slice.
func PrecomputeTransportMany(cts []*Ciphertext[*bn254.G2]) []*TransportTable {
	tts := make([]*TransportTable, len(cts))
	// Flatten into (ciphertext, coordinate) jobs with a prefix-sum
	// offset table so job j maps back without division by a
	// per-ciphertext width (κ is uniform today, but nothing here
	// requires it).
	offs := make([]int, len(cts)+1)
	for i, ct := range cts {
		tts[i] = &TransportTable{tabs: make([]*bn254.PairingTable, len(ct.Coins)+1)}
		offs[i+1] = offs[i] + len(ct.Coins) + 1
	}
	total := offs[len(cts)]
	par.ForEach(total, func(j int) {
		// Find the ciphertext owning flat index j.
		i := sort.Search(len(cts), func(k int) bool { return offs[k+1] > j })
		ct, local := cts[i], j-offs[i]
		if local < len(ct.Coins) {
			tts[i].tabs[local] = bn254.NewPairingTable(ct.Coins[local])
		} else {
			tts[i].tabs[local] = bn254.NewPairingTable(ct.Payload)
		}
	})
	return tts
}

// TransportManyPre is TransportMany over precomputed tables: one
// flattened PairTableBatch across all ciphertexts, every pairing a
// replay. Op counts match TransportMany (κ+1 pairings per ciphertext),
// keeping the experiment tables comparable. Differentially tested
// against TransportMany.
func TransportManyPre(ctr *opcount.Counter, a *bn254.G1, tts []*TransportTable) []*Ciphertext[*bn254.GT] {
	var ps []*bn254.G1
	var tabs []*bn254.PairingTable
	for _, tt := range tts {
		for range tt.tabs {
			ps = append(ps, a)
		}
		tabs = append(tabs, tt.tabs...)
	}
	gts := group.PairTableBatch(ctr, ps, tabs)
	out := make([]*Ciphertext[*bn254.GT], len(tts))
	off := 0
	for i, tt := range tts {
		n := len(tt.tabs) - 1
		out[i] = &Ciphertext[*bn254.GT]{Coins: gts[off : off+n], Payload: gts[off+n]}
		off += n + 1
	}
	return out
}
