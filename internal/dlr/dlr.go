// Package dlr implements DLR — the paper's distributed public key
// encryption scheme semantically secure against continual memory leakage
// (Construction 5.3) — including the two secret-memory layouts of the
// §5.2 remarks and the ciphertext-reuse optimization.
//
// Roles (Type-3 pairing layout):
//
//	g, g1 = g^α, A = g^t          ∈ G1
//	g2, aᵢ, Φ = g2^α·Π aᵢ^sᵢ      ∈ G2
//	messages, B = m·e(g1,g2)^t    ∈ GT
//
// Key generation (run by a trusted dealer, paper footnote 5) outputs
//
//	pk  = e(g1, g2)
//	sk1 = (a1,…,aℓ, Φ)  → P1     (Π_ss ciphertext encrypting msk = g2^α)
//	sk2 = (s1,…,sℓ)     → P2     (Π_ss key)
//
// Encryption of m ∈ GT is (g^t, m·pk^t): two exponentiations and a
// two-element ciphertext, as §1.2.1 advertises. Decryption and refresh
// are 2-party protocols between P1 and P2 (see protocol.go); P2 only
// ever samples scalars and computes products of received elements raised
// to those scalars — the "simplicity of one of the two devices" property.
//
// Hot loops ride the bn254 fast paths: P1's ℓ+1 ciphertext transports
// share one flattened PairBatch (hpske.TransportMany), and P2's
// Π dᵢ^sᵢ / Π f'ᵢ^s'ᵢ·fᵢ^(−sᵢ) combinations are coordinate-wise
// multi-exponentiations (hpske.LinComb over group.ProdExp). Op counts
// reported through opcount.Counter keep the naive shape — n
// exponentiations plus n multiplications per combination, one pairing
// per transported coordinate — so the E6 asymmetry table stays
// comparable across implementations. Like all bn254 arithmetic, none
// of this is constant-time; the leakage model tolerates it (see the
// bn254 package docs).
package dlr

import (
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/opcount"
	"repro/internal/params"
	"repro/internal/pss"
	"repro/internal/scalar"
)

// PublicKey is pk = (p, g, e, e(g1,g2)); the group description is the
// fixed BN254 instance, so only e(g1,g2) is carried.
type PublicKey struct {
	// E is e(g1, g2) = e(g, g2)^α.
	E *bn254.GT
	// Params are the derived scheme parameters (κ, ℓ, λ, n).
	Params params.Params
}

// Bytes returns the canonical public-key encoding.
func (pk *PublicKey) Bytes() []byte { return pk.E.Bytes() }

// Ciphertext is an encryption (A, B) = (g^t, m·e(g1,g2)^t) of m ∈ GT.
type Ciphertext struct {
	A *bn254.G1
	B *bn254.GT
}

// Bytes returns the canonical ciphertext encoding A ‖ B.
func (c *Ciphertext) Bytes() []byte {
	out := make([]byte, 0, bn254.G1Bytes+bn254.GTBytes)
	out = append(out, c.A.Bytes()...)
	out = append(out, c.B.Bytes()...)
	return out
}

// BytesCompressed returns the compact wire encoding A(compressed) ‖ B:
// the G1 component shrinks to 33 bytes; B (an Fp12 element) has no
// cheap compressed form and stays raw. This is the encoding the
// decrypt-server client sends; CiphertextFromBytes accepts both.
func (c *Ciphertext) BytesCompressed() []byte {
	out := make([]byte, 0, bn254.G1BytesCompressed+bn254.GTBytes)
	out = c.A.AppendCompressed(out)
	out = append(out, c.B.Bytes()...)
	return out
}

// CiphertextFromBytes decodes a ciphertext in either the canonical
// (A raw) or the compact (A compressed) encoding, distinguished by
// length.
func CiphertextFromBytes(b []byte) (*Ciphertext, error) {
	var (
		a   *bn254.G1
		err error
		off int
	)
	switch len(b) {
	case bn254.G1Bytes + bn254.GTBytes:
		a, err = new(bn254.G1).SetBytes(b[:bn254.G1Bytes])
		off = bn254.G1Bytes
	case bn254.G1BytesCompressed + bn254.GTBytes:
		a, err = new(bn254.G1).SetBytesCompressed(b[:bn254.G1BytesCompressed])
		off = bn254.G1BytesCompressed
	default:
		return nil, fmt.Errorf("dlr: ciphertext must be %d or %d bytes, got %d",
			bn254.G1Bytes+bn254.GTBytes, bn254.G1BytesCompressed+bn254.GTBytes, len(b))
	}
	if err != nil {
		return nil, fmt.Errorf("dlr: decoding A: %w", err)
	}
	bt, err := new(bn254.GT).SetBytes(b[off:])
	if err != nil {
		return nil, fmt.Errorf("dlr: decoding B: %w", err)
	}
	return &Ciphertext{A: a, B: bt}, nil
}

// P1 is the main device's state. Its secret memory depends on the mode:
// in ModeBasic it holds sk1 in the clear plus the period key skcomm; in
// ModeOptimalRate it holds only skcomm — sk1 lives Π_comm-encrypted in
// public memory (encSK1/encPhi) and is never decrypted.
type P1 struct {
	pk   *PublicKey
	prm  params.Params
	mode params.Mode
	ctr  *opcount.Counter

	ssG2 *hpske.Scheme[*bn254.G2] // Π_comm over G2 (key length κ)
	ssGT *hpske.Scheme[*bn254.GT] // Π_comm over GT (key length κ)
	g2   group.G2
	gt   group.GT

	// sk1 is the plaintext share (ModeBasic only; nil otherwise).
	//dlr:secret
	sk1 *pss.Share1

	// skcomm is the current period's Π_comm key.
	//dlr:secret
	skcomm hpske.Key

	// encSK1[i] = Enc'_{skcomm}(aᵢ) — the fᵢ of the protocols — and
	// encPhi = Enc'_{skcomm}(Φ). Public memory (they transit the public
	// channel anyway).
	encSK1 []*hpske.Ciphertext[*bn254.G2]
	encPhi *hpske.Ciphertext[*bn254.G2]

	// transTabs caches the precomputed Miller-loop line tables for the
	// §5.2 transports of encSK1/encPhi (public data derived from public
	// ciphertexts). Built lazily on the first RunDec of a period and
	// dropped whenever the encrypted share changes.
	transTabs []*hpske.TransportTable

	// batchTabs holds the current epoch's batch decryption session: the
	// κ+1 pairing tables derived from P2's combination u. Once set, a
	// RunDecBatch serves entirely locally — zero round trips — until
	// the next rotation drops the session. Atomic because the bench
	// pipeline (and any other caller honoring the read-only contract)
	// drives one P1 from several worker goroutines; concurrent cold
	// batches may race to install, which is benign — the tables are a
	// deterministic function of (u, skcomm), so either install is valid.
	//dlr:atomic
	batchTabs atomic.Pointer[batchSession]

	period uint64

	// epoch counts share-state rotations: it is bumped by every
	// operation that replaces encSK1/encPhi/skcomm (RunRef, BeginPeriod,
	// rebuildEncryptedShare, CommitRefresh). Unlike period — which only
	// refresh protocols advance — epoch changes on EVERY rotation, so
	// CommitRefresh can refuse a staged refresh whose base state has
	// been replaced. Atomic because observers (the server's TenantEpoch
	// gauge, StageRefresh running concurrently with serving) read it
	// while a rotation on the owning loop bumps it.
	//dlr:atomic
	epoch atomic.Uint64
}

// P2 is the auxiliary device's state: just the Π_ss key sk2 = (s1,…,sℓ).
type P2 struct {
	prm params.Params
	ctr *opcount.Counter

	ssG2 *hpske.Scheme[*bn254.G2]
	ssGT *hpske.Scheme[*bn254.GT]
	g2   group.G2
	gt   group.GT

	// mu orders refresh (which rewrites sk2) against decryption requests
	// when one P2 serves several channels concurrently — the dlrdevice
	// daemon's per-connection goroutines. Decryptions share a read lock;
	// a refresh takes the write lock.
	mu sync.RWMutex

	//dlr:secret
	sk2 hpske.Key

	period uint64
}

// Option configures key generation.
type Option func(*genConfig)

type genConfig struct {
	mode   params.Mode
	ctrP1  *opcount.Counter
	ctrP2  *opcount.Counter
	ctrGen *opcount.Counter
}

// WithMode selects P1's secret-memory layout (default ModeOptimalRate).
func WithMode(m params.Mode) Option { return func(c *genConfig) { c.mode = m } }

// WithCounters attaches per-device operation counters (either may be nil).
func WithCounters(p1, p2 *opcount.Counter) Option {
	return func(c *genConfig) {
		c.ctrP1 = p1
		c.ctrP2 = p2
	}
}

// WithGenCounter attaches a counter for the dealer's own operations.
func WithGenCounter(ctr *opcount.Counter) Option {
	return func(c *genConfig) { c.ctrGen = ctr }
}

// Gen runs key generation (the trusted dealer of footnote 5): it samples
// α, g2, computes pk = e(g^α, g2), shares msk = g2^α via Π_ss, hands the
// ciphertext share to P1 and the key share to P2, and installs the first
// period's Π_comm key.
func Gen(rng io.Reader, prm params.Params, opts ...Option) (*PublicKey, *P1, *P2, error) {
	cfg := genConfig{mode: params.ModeOptimalRate}
	for _, o := range opts {
		o(&cfg)
	}
	genG2 := group.G2{Ctr: cfg.ctrGen}

	alpha, err := scalar.Rand(rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dlr: sampling α: %w", err)
	}
	g1 := new(bn254.G1).ScalarBaseMult(alpha)
	cfg.ctrGen.Add(opcount.G1Exp, 1)

	// g2 is sampled obliviously (nobody knows its discrete log).
	g2pt, err := genG2.Rand(rng)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dlr: sampling g2: %w", err)
	}
	e := group.Pair(cfg.ctrGen, g1, g2pt)
	msk := genG2.Exp(g2pt, alpha)

	// Share msk between the devices.
	ss, err := pss.New(genG2, prm.Ell)
	if err != nil {
		return nil, nil, nil, err
	}
	sh1, sh2, err := ss.Share(rng, msk)
	if err != nil {
		return nil, nil, nil, err
	}

	pk := &PublicKey{E: e, Params: prm}
	p1, err := newP1(rng, pk, prm, cfg.mode, cfg.ctrP1, sh1)
	if err != nil {
		return nil, nil, nil, err
	}
	p2, err := newP2(pk, prm, cfg.ctrP2, sh2)
	if err != nil {
		return nil, nil, nil, err
	}
	return pk, p1, p2, nil
}

func newP1(rng io.Reader, pk *PublicKey, prm params.Params, mode params.Mode, ctr *opcount.Counter, sh1 *pss.Share1) (*P1, error) {
	g2 := group.G2{Ctr: ctr}
	gt := group.GT{Ctr: ctr}
	ssG2, err := hpske.New[*bn254.G2](g2, prm.Kappa)
	if err != nil {
		return nil, err
	}
	ssGT, err := hpske.New[*bn254.GT](gt, prm.Kappa)
	if err != nil {
		return nil, err
	}
	p1 := &P1{
		pk: pk, prm: prm, mode: mode, ctr: ctr,
		ssG2: ssG2, ssGT: ssGT, g2: g2, gt: gt,
	}
	switch mode {
	case params.ModeBasic:
		p1.sk1 = sh1.Clone()
		if err := p1.rebuildEncryptedShare(rng); err != nil {
			return nil, err
		}
	case params.ModeOptimalRate:
		// Encrypt the share coordinate-by-coordinate and drop the
		// plaintext: the aᵢ become the payloads of the fᵢ.
		key, err := ssG2.GenKey(rng)
		if err != nil {
			return nil, err
		}
		p1.skcomm = key
		p1.encSK1 = make([]*hpske.Ciphertext[*bn254.G2], prm.Ell)
		for i, ai := range sh1.Coins {
			ct, err := ssG2.Encrypt(rng, key, ai)
			if err != nil {
				return nil, err
			}
			p1.encSK1[i] = ct
		}
		encPhi, err := ssG2.Encrypt(rng, key, sh1.Payload)
		if err != nil {
			return nil, err
		}
		p1.encPhi = encPhi
	default:
		return nil, fmt.Errorf("dlr: unknown mode %v", mode)
	}
	return p1, nil
}

func newP2(pk *PublicKey, prm params.Params, ctr *opcount.Counter, sh2 pss.Share2) (*P2, error) {
	g2 := group.G2{Ctr: ctr}
	gt := group.GT{Ctr: ctr}
	ssG2, err := hpske.New[*bn254.G2](g2, prm.Kappa)
	if err != nil {
		return nil, err
	}
	ssGT, err := hpske.New[*bn254.GT](gt, prm.Kappa)
	if err != nil {
		return nil, err
	}
	return &P2{
		prm: prm, ctr: ctr,
		ssG2: ssG2, ssGT: ssGT, g2: g2, gt: gt,
		sk2: hpske.Key(sh2),
	}, nil
}

// rebuildEncryptedShare (ModeBasic) samples a fresh skcomm and
// re-encrypts the plaintext share under it — the paper's "P1 samples a
// key skcomm ← Gen'" at the start of each period.
//
//dlr:zeroize skcomm
func (p *P1) rebuildEncryptedShare(rng io.Reader) error {
	key, err := p.ssG2.GenKey(rng)
	if err != nil {
		return err
	}
	// Wipe the outgoing period key before dropping the reference (nil on
	// the first call from newP1).
	p.skcomm.Zeroize()
	p.skcomm = key
	p.encSK1 = make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	for i, ai := range p.sk1.Coins {
		ct, err := p.ssG2.Encrypt(rng, key, ai)
		if err != nil {
			return err
		}
		p.encSK1[i] = ct
	}
	encPhi, err := p.ssG2.Encrypt(rng, key, p.sk1.Payload)
	if err != nil {
		return err
	}
	p.encPhi = encPhi
	p.noteRotation()
	return nil
}

// noteRotation records that the share state (encSK1/encPhi/skcomm) has
// been replaced: every precomputed table derived from the old state is
// now dead and is dropped, and the epoch advances.
func (p *P1) noteRotation() {
	p.epoch.Add(1)
	p.transTabs = nil
	p.batchTabs.Store(nil)
}

// Epoch returns the share-rotation epoch (see the field doc).
func (p *P1) Epoch() uint64 { return p.epoch.Load() }

// transportTables returns the line tables for the current encrypted
// share, building them (one per ciphertext, fanned out across CPUs) on
// first use. The tables are pure public-key material: they are a
// deterministic function of the public encSK1/encPhi ciphertexts, so
// keeping them adds nothing to P1's secret memory or leakage surface.
func (p *P1) transportTables() []*hpske.TransportTable {
	if p.transTabs != nil {
		return p.transTabs
	}
	srcs := make([]*hpske.Ciphertext[*bn254.G2], 0, p.prm.Ell+1)
	srcs = append(srcs, p.encSK1...)
	srcs = append(srcs, p.encPhi)
	// One flattened fan-out over all (ℓ+1)(κ+1) line tables instead of
	// a fork/join barrier per ciphertext.
	p.transTabs = hpske.PrecomputeTransportMany(srcs)
	return p.transTabs
}

// BeginPeriod starts a new time period: P1 rotates its Π_comm key. In
// ModeBasic the encrypted share is regenerated from the plaintext share;
// in ModeOptimalRate every public ciphertext is re-encrypted from the
// old key to the new one without decryption.
//
//dlr:zeroize skcomm
func (p *P1) BeginPeriod(rng io.Reader) error {
	p.period++
	if p.mode == params.ModeBasic {
		return p.rebuildEncryptedShare(rng)
	}
	newKey, err := p.ssG2.GenKey(rng)
	if err != nil {
		return err
	}
	for i, ct := range p.encSK1 {
		re, err := p.ssG2.ReEncrypt(rng, p.skcomm, newKey, ct)
		if err != nil {
			return err
		}
		p.encSK1[i] = re
	}
	re, err := p.ssG2.ReEncrypt(rng, p.skcomm, newKey, p.encPhi)
	if err != nil {
		return err
	}
	p.encPhi = re
	// Every ciphertext now lives under newKey; wipe the outgoing period
	// key before dropping the reference.
	p.skcomm.Zeroize()
	p.skcomm = newKey
	p.noteRotation()
	return nil
}

// Encrypt encrypts m ∈ GT: (g^t, m·pk^t) for uniform t.
func Encrypt(rng io.Reader, pk *PublicKey, m *bn254.GT, ctr *opcount.Counter) (*Ciphertext, error) {
	t, err := scalar.Rand(rng)
	if err != nil {
		return nil, fmt.Errorf("dlr: sampling t: %w", err)
	}
	a := new(bn254.G1).ScalarBaseMult(t)
	ctr.Add(opcount.G1Exp, 1)
	b := new(bn254.GT).Exp(pk.E, t)
	ctr.Add(opcount.GTExp, 1)
	b.Mul(b, m)
	ctr.Add(opcount.GTMul, 1)
	return &Ciphertext{A: a, B: b}, nil
}

// Rerandomize returns an independently distributed encryption of the
// same plaintext: (A·g^{t'}, B·pk^{t'}). Secure storage (§4.4) uses this
// to refresh stored ciphertexts each period alongside the key-share
// refresh.
func (c *Ciphertext) Rerandomize(rng io.Reader, pk *PublicKey, ctr *opcount.Counter) (*Ciphertext, error) {
	t, err := scalar.Rand(rng)
	if err != nil {
		return nil, err
	}
	a := new(bn254.G1).ScalarBaseMult(t)
	ctr.Add(opcount.G1Exp, 1)
	a.Add(a, c.A)
	ctr.Add(opcount.G1Mul, 1)
	b := new(bn254.GT).Exp(pk.E, t)
	ctr.Add(opcount.GTExp, 1)
	b.Mul(b, c.B)
	ctr.Add(opcount.GTMul, 1)
	return &Ciphertext{A: a, B: b}, nil
}

// RandMessage samples a uniformly random plaintext in GT (with known
// exponent relative to pk — fine for message material).
func RandMessage(rng io.Reader, pk *PublicKey) (*bn254.GT, error) {
	u, err := scalar.Rand(rng)
	if err != nil {
		return nil, err
	}
	return new(bn254.GT).Exp(pk.E, u), nil
}

// Mode returns P1's secret-memory layout.
func (p *P1) Mode() params.Mode { return p.mode }

// Period returns the current period number of P1.
func (p *P1) Period() uint64 { return p.period }

// Params returns the scheme parameters.
func (p *P1) Params() params.Params { return p.prm }

// Public returns the public key.
func (p *P1) Public() *PublicKey { return p.pk }

// SecretBytes serializes P1's secret memory: in ModeBasic the plaintext
// share plus skcomm; in ModeOptimalRate only skcomm. This is the input
// handed to the adversary's leakage functions h_1^t.
func (p *P1) SecretBytes() []byte {
	var out []byte
	if p.mode == params.ModeBasic {
		for _, a := range p.sk1.Coins {
			out = append(out, a.Bytes()...)
		}
		out = append(out, p.sk1.Payload.Bytes()...)
	}
	out = append(out, p.skcomm.Bytes()...)
	return out
}

// PublicShareBytes serializes P1's public memory beyond the transcript:
// the encrypted share (ModeOptimalRate) — empty in ModeBasic where the
// encrypted share is transient.
func (p *P1) PublicShareBytes() []byte {
	if p.mode != params.ModeOptimalRate {
		return nil
	}
	var out []byte
	for _, ct := range p.encSK1 {
		b, err := p.ssG2.Bytes(ct)
		if err != nil {
			continue
		}
		out = append(out, b...)
	}
	if b, err := p.ssG2.Bytes(p.encPhi); err == nil {
		out = append(out, b...)
	}
	return out
}

// SecretBytes serializes P2's secret memory: sk2 = (s1,…,sℓ).
func (p *P2) SecretBytes() []byte { return p.sk2.Bytes() }

// Period returns the current period number of P2.
func (p *P2) Period() uint64 { return p.period }

// shareSK2 returns a copy of P2's share (test/benchmark support — a
// deployment never extracts this).
func (p *P2) shareSK2() []*big.Int { return scalar.CopyVector(p.sk2) }

// sharePlain reconstructs P1's plaintext share (test support): in
// ModeBasic it is held directly; in ModeOptimalRate it requires skcomm
// to decrypt the public ciphertexts.
func (p *P1) sharePlain() (*pss.Share1, error) {
	if p.mode == params.ModeBasic {
		return p.sk1.Clone(), nil
	}
	coins := make([]*bn254.G2, len(p.encSK1))
	for i, ct := range p.encSK1 {
		a, err := p.ssG2.Decrypt(p.skcomm, ct)
		if err != nil {
			return nil, err
		}
		coins[i] = a
	}
	phi, err := p.ssG2.Decrypt(p.skcomm, p.encPhi)
	if err != nil {
		return nil, err
	}
	return &pss.Share1{Coins: coins, Payload: phi}, nil
}
