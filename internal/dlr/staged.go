package dlr

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/hpske"
	"repro/internal/params"
	"repro/internal/scalar"
	"repro/internal/wire"
)

// Pipelined refresh (zero-stall rotation).
//
// The cold rotation path — RunRef followed by BeginPeriod — serializes
// the entire share replacement against serving: while it runs, the
// tenant's window loop is quiesced, and the first post-rotation batch
// then pays the full table rebuild ((ℓ+1)(κ+1) transport Miller
// precomputations plus κ+1 batch tables), so p99 spikes at every epoch
// boundary. Since the leakage bounds of Theorem 4.1 are per-period,
// production rotates continually, and the spike recurs at every
// cadence tick.
//
// The pipelined path splits the rotation in two:
//
//	StageRefresh  — read-only on P1's share state, runs CONCURRENTLY
//	                with serving: samples the next share coordinates
//	                a'ᵢ and the next period key σ', produces the next
//	                encrypted share under σ', pre-encodes the wire
//	                payload, and prewarms ℓ of the ℓ+1 next-epoch
//	                transport tables (the encrypted-Φ table needs P2's
//	                reply) with one flattened parallel build.
//	CommitRefresh — the only serialized part: one round trip to P2
//	                (the same 2ℓ+1-ciphertext frame as RunRef), the
//	                Φ'-dependent leftovers, and an atomic flip of P1's
//	                state to the staged next epoch.
//
// The commit round trip also returns u' = Π f'ᵢ^s'ᵢ / f — P2's batch
// combination over the NEW share, still encrypted under the OLD period
// key σ. That one extra ciphertext lets P1 derive the next epoch's
// batch tables before the flip: the mask they encode,
// e(A, g2^(−α)), is epoch-independent (refresh re-shares the same
// master secret), so tables folded with the old σ over u' remain
// correct for every post-flip batch. The first post-rotation window
// therefore starts with BOTH table families warm — no rebuild, no
// round trip, no p99 spike.
//
// Leakage accounting: the staged state is exactly the material the
// cold path holds transiently inside RunRef/BeginPeriod (the next
// period key, the new share ciphertexts, and — in ModeBasic — the new
// plaintext coordinates), held across the staging window instead of
// across one protocol run. The zeroize-on-commit guarantees are
// unchanged: the outgoing σ and (on P2) the outgoing s are wiped in
// place at the flip, and an abandoned staging wipes σ' (Abandon). The
// prewarmed tables are functions of public ciphertexts and of u' —
// data that transits the public channel anyway — so they add nothing
// to the adversary's view beyond what the cold path already exposes.

// StagedRefresh is the output of StageRefresh: everything the next
// epoch needs that can be computed without P2. It is single-use;
// CommitRefresh consumes it (or Abandon discards it, wiping the staged
// key material).
type StagedRefresh struct {
	// epoch is P1's rotation epoch at staging time; CommitRefresh
	// refuses a staged state whose base epoch is no longer current.
	epoch uint64

	// payload is the pre-encoded kindRefP1 frame: (fᵢ, f'ᵢ) pairs plus
	// fΦ, identical in shape to the cold protocol's ref1 frame.
	payload []byte

	// nextKey is the next period's Π_comm key σ', installed at commit.
	//
	//dlr:secret
	nextKey hpske.Key

	// nextEncSK1 is the next epoch's encrypted share: the staged a'ᵢ
	// encrypted under σ' (ModeOptimalRate re-encrypts the wire f'ᵢ
	// from σ to σ' without decryption; ModeBasic encrypts the retained
	// plaintexts directly).
	nextEncSK1 []*hpske.Ciphertext[*bn254.G2]

	// newCoins retains the plaintext a'ᵢ in ModeBasic only (nil
	// otherwise), mirroring RunRef's newCoins.
	//
	//dlr:secret
	newCoins []*bn254.G2

	// transTabs are the prewarmed transport tables for nextEncSK1 — ℓ
	// of the next epoch's ℓ+1 tables; CommitRefresh appends the
	// encrypted-Φ' table once P2's reply provides it.
	transTabs []*hpske.TransportTable

	consumed bool
}

// Abandon discards a staged refresh that will not be committed (e.g.
// the commit round trip failed, or a competing rotation landed first),
// wiping the staged period key. Safe on nil and after commit.
//
//dlr:zeroize nextKey
func (st *StagedRefresh) Abandon() {
	if st == nil || st.consumed {
		//dlrlint:ignore zeroize-paths a nil or already-consumed staging holds no key; the consumed flag is only set after the wipe below
		return
	}
	st.consumed = true
	st.nextKey.Zeroize()
	st.nextKey = nil
	st.newCoins = nil
	st.nextEncSK1 = nil
	st.transTabs = nil
	st.payload = nil
}

// StageRefresh prepares the next rotation without mutating P1 and
// without contacting P2, so it can run concurrently with serving (the
// same read-only contract RunDecBatch honors: share state is only
// mutated by commit/rotation operations, which the caller must
// serialize against both staging and serving — the server runs them on
// the tenant's window loop). The returned state is committed with
// CommitRefresh or discarded with Abandon.
func (p *P1) StageRefresh(rng io.Reader) (*StagedRefresh, error) {
	st := &StagedRefresh{epoch: p.epoch.Load()}
	nextKey, err := p.ssG2.GenKey(rng)
	if err != nil {
		return nil, err
	}
	st.nextKey = nextKey

	fPrimes := make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	st.nextEncSK1 = make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	if p.mode == params.ModeBasic {
		st.newCoins = make([]*bn254.G2, p.prm.Ell)
	}
	for i := range fPrimes {
		aPrime, err := p.g2.Rand(rng)
		if err != nil {
			st.Abandon()
			return nil, fmt.Errorf("dlr: sampling a'_%d: %w", i, err)
		}
		// f'ᵢ = Enc_σ(a'ᵢ) goes on the wire at commit (P2 combines it
		// under the old key).
		ct, err := p.ssG2.Encrypt(rng, p.skcomm, aPrime)
		if err != nil {
			st.Abandon()
			return nil, err
		}
		fPrimes[i] = ct
		switch p.mode {
		case params.ModeBasic:
			st.newCoins[i] = aPrime
			st.nextEncSK1[i], err = p.ssG2.Encrypt(rng, nextKey, aPrime)
		default: // params.ModeOptimalRate
			// Key-switch σ → σ' without decryption; the plaintext a'ᵢ
			// goes out of scope here, as in RunRef.
			st.nextEncSK1[i], err = p.ssG2.ReEncrypt(rng, p.skcomm, nextKey, ct)
		}
		if err != nil {
			st.Abandon()
			return nil, err
		}
	}

	// Pre-encode the commit frame: (fᵢ, f'ᵢ) pairs then fΦ, the ref1
	// shape handleRefP1 (and handleRef1) expects.
	cts := make([]*hpske.Ciphertext[*bn254.G2], 0, 2*p.prm.Ell+1)
	for i := 0; i < p.prm.Ell; i++ {
		cts = append(cts, p.encSK1[i], fPrimes[i])
	}
	cts = append(cts, p.encPhi)
	st.payload, err = hpske.EncodeList(p.ssG2, cts)
	if err != nil {
		st.Abandon()
		return nil, err
	}

	// Prewarm the next epoch's transport tables (all but the
	// Φ'-dependent one) in one flattened parallel build. These are
	// public-data precomputations over ciphertexts that will transit
	// the public channel at commit.
	st.transTabs = hpske.PrecomputeTransportMany(st.nextEncSK1)
	return st, nil
}

// CommitRefresh finishes a staged rotation: one round trip on ch runs
// P2's half of the refresh (which also returns u', the new share's
// batch combination under the old key), then P1 atomically flips to
// the staged next epoch with both table families already warm. The
// epoch advances by exactly one; the old period key is wiped in place.
// On error P1's state is unchanged and st remains uncommitted (the
// caller should Abandon it — though note that a failure AFTER the send
// may leave P2 already rotated, the same partial-failure window the
// cold protocol has; crash-safe rotation is ROADMAP item 2).
//
//dlr:zeroize skcomm
func (p *P1) CommitRefresh(rng io.Reader, ch device.Channel, st *StagedRefresh) error {
	if st == nil || st.consumed {
		return fmt.Errorf("dlr: commit of a nil or consumed staged refresh")
	}
	if now := p.epoch.Load(); st.epoch != now {
		return fmt.Errorf("dlr: staged refresh is stale (staged at epoch %d, now %d)", st.epoch, now)
	}
	if err := ch.Send(wire.Msg{Kind: kindRefP1, Payload: st.payload}); err != nil {
		return err
	}
	reply, err := ch.Recv()
	if err != nil {
		return err
	}
	if reply.Kind != kindRefP2 {
		return fmt.Errorf("dlr: expected %s, got %s", kindRefP2, reply.Kind)
	}
	fs, err := hpske.DecodeList(p.ssG2, reply.Payload, 2)
	if err != nil {
		return err
	}
	f, uPrime := fs[0], fs[1]

	// Next-epoch batch tables from u'. u' is encrypted under the OLD σ
	// (P2 built it before its own flip), so the key fold must happen
	// before σ is wiped below. The mask the tables encode,
	// e(A, g2^(−α)), does not change across refresh, so they serve
	// every post-flip batch.
	batchTabs := p.batchTables(uPrime)

	var encPhi *hpske.Ciphertext[*bn254.G2]
	switch p.mode {
	case params.ModeBasic:
		phiPrime, err := p.ssG2.Decrypt(p.skcomm, f)
		if err != nil {
			return fmt.Errorf("dlr: decrypting Φ': %w", err)
		}
		p.sk1.Coins = st.newCoins
		p.sk1.Payload = phiPrime
		encPhi, err = p.ssG2.Encrypt(rng, st.nextKey, phiPrime)
		if err != nil {
			return err
		}
	default: // params.ModeOptimalRate
		encPhi, err = p.ssG2.ReEncrypt(rng, p.skcomm, st.nextKey, f)
		if err != nil {
			return err
		}
	}
	// Complete the transport set with the one Φ'-dependent table.
	transTabs := append(append(make([]*hpske.TransportTable, 0, p.prm.Ell+1),
		st.transTabs...), hpske.PrecomputeTransport(encPhi))

	// Atomic flip. The outgoing period key is wiped in place (the
	// paper's erasure at the end of refresh); the epoch advances ONCE —
	// the pipelined rotation replaces both the share refresh and the
	// period rotation in a single share-state replacement.
	p.skcomm.Zeroize()
	p.skcomm = st.nextKey
	p.encSK1 = st.nextEncSK1
	p.encPhi = encPhi
	p.period++
	p.epoch.Add(1)
	p.transTabs = transTabs
	p.batchTabs.Store(&batchSession{tabs: batchTabs})
	st.consumed = true
	st.nextKey = nil
	st.newCoins = nil
	return nil
}

// handleRefP1 executes P2's side of the pipelined refresh: the same
// share replacement as handleRef1 — sample s', return
// f = Π f'ᵢ^s'ᵢ·fᵢ^(−sᵢ)·fΦ, install s' — plus the next epoch's batch
// combination u' = Π f'ᵢ^s'ᵢ / f, computed over the NEW share but
// under the OLD period key, so P1 can prewarm its batch tables from
// the same round trip. Both devices' erasures are unchanged.
//
//dlr:zeroize sk2
func (p *P2) handleRefP1(msg wire.Msg) (wire.Msg, error) {
	cts, err := hpske.DecodeList(p.ssG2, msg.Payload, 2*p.prm.Ell+1)
	if err != nil {
		return wire.Msg{}, err
	}
	sPrime, err := scalar.RandVector(nil, p.prm.Ell)
	if err != nil {
		return wire.Msg{}, err
	}
	bases := make([]*hpske.Ciphertext[*bn254.G2], 0, 2*p.prm.Ell)
	exps := make([]*big.Int, 0, 2*p.prm.Ell)
	for i := 0; i < p.prm.Ell; i++ {
		bases = append(bases, cts[2*i+1], cts[2*i])
		exps = append(exps, sPrime[i], new(big.Int).Neg(p.sk2[i]))
	}
	acc, err := p.ssG2.LinComb(bases, exps)
	if err != nil {
		return wire.Msg{}, err
	}
	fPhi := cts[2*p.prm.Ell]
	f, err := p.ssG2.Mul(acc, fPhi)
	if err != nil {
		return wire.Msg{}, err
	}
	// u' = Π f'ᵢ^s'ᵢ / f: payload-side this is Π a'ᵢ^s'ᵢ / Φ' =
	// g2^(−α), the epoch-independent decryption mask, as a Π_comm
	// ciphertext under the old σ. Only the new scalars s' and public
	// ciphertexts enter — the outgoing share contributes nothing.
	basesU := make([]*hpske.Ciphertext[*bn254.G2], 0, p.prm.Ell+1)
	expsU := make([]*big.Int, 0, p.prm.Ell+1)
	for i := 0; i < p.prm.Ell; i++ {
		basesU = append(basesU, cts[2*i+1])
		expsU = append(expsU, sPrime[i])
	}
	basesU = append(basesU, f)
	expsU = append(expsU, big.NewInt(-1))
	uPrime, err := p.ssG2.LinComb(basesU, expsU)
	if err != nil {
		return wire.Msg{}, err
	}
	payload, err := hpske.EncodeList(p.ssG2, []*hpske.Ciphertext[*bn254.G2]{f, uPrime})
	if err != nil {
		return wire.Msg{}, err
	}
	// Erase the old share and install the new one, exactly as in
	// handleRef1.
	p.sk2.Zeroize()
	p.sk2 = hpske.Key(sPrime)
	p.period++
	return wire.Msg{Kind: kindRefP2, Payload: payload}, nil
}

// RefreshPipelined runs the full two-phase refresh in-process: stage
// (concurrent-safe, here sequential) then commit over a fresh channel
// pair. The in-process twin of the server's warm rotation handover.
func RefreshPipelined(rng io.Reader, p1 *P1, p2 *P2) (*Stats, error) {
	st, err := p1.StageRefresh(rng)
	if err != nil {
		return nil, err
	}
	r1, r2, err := device.Run(
		func(ch device.Channel) error { return p1.CommitRefresh(rng, ch, st) },
		p2.Serve,
	)
	if err != nil {
		st.Abandon()
		return nil, err
	}
	return &Stats{BytesP1: r1.BytesSent(), BytesP2: r2.BytesSent()}, nil
}
