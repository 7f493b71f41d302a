package dlr

import (
	"fmt"
	"math/big"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/hpske"
	"repro/internal/opcount"
	"repro/internal/par"
	"repro/internal/wire"
)

// Batched decryption (throughput tier).
//
// The per-request protocol (RunDec) transports ℓ+1 encrypted-share
// ciphertexts to GT for every ciphertext — (ℓ+1)(κ+1) pairings plus a
// round trip per request. The batched variant observes that P2's
// contribution does not depend on the request at all: the combination
//
//	u = Π fᵢ^sᵢ / fΦ
//
// is a Π_comm ciphertext (in G2) of Π aᵢ^sᵢ / Φ = g2^(−α), fixed until
// the next refresh. So one round trip fetches u, and every request in
// the batch is then served locally:
//
//	mⱼ = Bⱼ · e(Aⱼ, g2^(−α)) = Bⱼ · pk^(−tⱼ).
//
// P1 never decrypts u (that would put the masked master secret in its
// leakage-exposed memory). Instead it folds its Π_comm key σ into the
// pairing product:
//
//	e(Aⱼ, g2^(−α)) = e(Aⱼ, payload(u)) · Π_t e(Aⱼ, coin_t(u)^(−σ_t)),
//
// κ+1 pairings whose G2 sides are fixed across the batch. Those sides
// are turned into precomputed line tables once per batch, and each
// request replays them through bn254.MultiPairMixed — all κ+1 Miller
// replays accumulate into one Fp12 with a single shared final
// exponentiation. Requests fan out across CPUs (par.ForEach), so Miller
// loops from different requests pipeline through the worker pool that
// cmd/dlrbench drives.
//
// Amortized per request the batch path costs κ+1 table replays and one
// final exponentiation, against the per-request protocol's
// (ℓ+1)(κ+1) pairings (each with its own final exponentiation) plus
// P2's (κ+1)-coordinate LinComb and a full round trip. Experiment E13
// measures the resulting throughput curve.

// batchSession is an epoch's installed batch decryption state: once
// the κ+1 pairing tables exist in-struct, every further batch of the
// epoch is served with zero round trips and zero table builds. The
// session is dropped on every rotation (noteRotation) and installed
// either by the first cold batch of an epoch or — prewarmed — by
// CommitRefresh, which derives the next epoch's tables from the
// refresh round trip itself.
type batchSession struct {
	tabs []*bn254.PairingTable
}

// BatchWarm reports whether a batch decryption session is installed
// for the current epoch — i.e. whether the next RunDecBatch will be
// served entirely locally, without touching the device channel.
func (p *P1) BatchWarm() bool { return p.batchTabs.Load() != nil }

// RunDecBatch executes P1's side of the batched decryption protocol for
// the ciphertexts cs and returns the recovered messages in order. The
// first batch of an epoch pays one round trip on ch to fetch P2's
// combination u and installs the session tables; every later batch of
// the epoch is served entirely locally (ch is not touched — steady
// state needs no device round trips at all).
func (p *P1) RunDecBatch(ch device.Channel, cs []*Ciphertext) ([]*bn254.GT, error) {
	for i, c := range cs {
		if c == nil || c.A == nil || c.B == nil {
			return nil, fmt.Errorf("dlr: nil ciphertext at index %d", i)
		}
	}
	if len(cs) == 0 {
		return nil, nil
	}

	var tabs []*bn254.PairingTable
	if sess := p.batchTabs.Load(); sess != nil {
		tabs = sess.tabs
	} else {
		// Round trip: ship the encrypted share, receive the combination u.
		cts := make([]*hpske.Ciphertext[*bn254.G2], 0, p.prm.Ell+1)
		cts = append(cts, p.encSK1...)
		cts = append(cts, p.encPhi)
		payload, err := hpske.EncodeList(p.ssG2, cts)
		if err != nil {
			return nil, err
		}
		if err := ch.Send(wire.Msg{Kind: kindDecB1, Payload: payload}); err != nil {
			return nil, err
		}
		reply, err := ch.Recv()
		if err != nil {
			return nil, err
		}
		if reply.Kind != kindDecB2 {
			return nil, fmt.Errorf("dlr: expected %s, got %s", kindDecB2, reply.Kind)
		}
		us, err := hpske.DecodeList(p.ssG2, reply.Payload, 1)
		if err != nil {
			return nil, err
		}
		tabs = p.batchTables(us[0])
		p.batchTabs.Store(&batchSession{tabs: tabs})
	}

	out := make([]*bn254.GT, len(cs))
	par.ForEach(len(cs), func(j int) {
		out[j] = decryptWithTables(cs[j], tabs)
	})
	p.ctr.Add(opcount.Pairing, int64(len(cs)*len(tabs)))
	p.ctr.Add(opcount.GTMul, int64(len(cs)))
	return out, nil
}

// batchTables builds the fixed G2 side of the batch pairings: line
// tables for coin_t(u)^(−σ_t) (κ tables, the key fold) and payload(u).
// The exponentiations run through p.g2 so the op counter sees them.
func (p *P1) batchTables(u *hpske.Ciphertext[*bn254.G2]) []*bn254.PairingTable {
	sides := make([]*bn254.G2, 0, len(u.Coins)+1)
	for t, b := range u.Coins {
		e := new(big.Int).Neg(p.skcomm[t])
		sides = append(sides, p.g2.Exp(b, e))
	}
	sides = append(sides, u.Payload)
	tabs := make([]*bn254.PairingTable, len(sides))
	par.ForEach(len(sides), func(i int) {
		tabs[i] = bn254.NewPairingTable(sides[i])
	})
	return tabs
}

// decryptWithTables serves one request against the batch tables:
// m = B · Π_t e(A, T_t), one shared final exponentiation.
func decryptWithTables(c *Ciphertext, tabs []*bn254.PairingTable) *bn254.GT {
	tps := make([]*bn254.G1, len(tabs))
	for i := range tps {
		tps[i] = c.A
	}
	mask := bn254.MultiPairMixed(nil, nil, tps, tabs)
	return new(bn254.GT).Mul(c.B, mask)
}

// handleDecB1 executes P2's side of the batched decryption protocol:
// reply with u = Π fᵢ^sᵢ / fΦ, one coordinate-wise linear combination
// with the division folded into a −1 exponent.
func (p *P2) handleDecB1(msg wire.Msg) (wire.Msg, error) {
	cts, err := hpske.DecodeList(p.ssG2, msg.Payload, p.prm.Ell+1)
	if err != nil {
		return wire.Msg{}, err
	}
	bases := make([]*hpske.Ciphertext[*bn254.G2], 0, p.prm.Ell+1)
	exps := make([]*big.Int, 0, p.prm.Ell+1)
	for i := 0; i < p.prm.Ell; i++ {
		bases = append(bases, cts[i])
		exps = append(exps, p.sk2[i])
	}
	bases = append(bases, cts[p.prm.Ell])
	exps = append(exps, big.NewInt(-1))
	u, err := p.ssG2.LinComb(bases, exps)
	if err != nil {
		return wire.Msg{}, err
	}
	payload, err := hpske.EncodeList(p.ssG2, []*hpske.Ciphertext[*bn254.G2]{u})
	if err != nil {
		return wire.Msg{}, err
	}
	return wire.Msg{Kind: kindDecB2, Payload: payload}, nil
}

// DecryptBatch runs the batched 2-party decryption protocol in-process
// and returns the messages together with transcript statistics. When
// P1 already holds the epoch's batch session, the protocol degenerates
// to a purely local computation: no channel pair is spun up (P2's
// Serve expects exactly one request frame, which a warm batch never
// sends) and the transcript is empty.
func DecryptBatch(p1 *P1, p2 *P2, cs []*Ciphertext) ([]*bn254.GT, *Stats, error) {
	if len(cs) == 0 {
		return nil, &Stats{}, nil
	}
	if p1.BatchWarm() {
		ms, err := p1.RunDecBatch(nil, cs)
		if err != nil {
			return nil, nil, err
		}
		return ms, &Stats{}, nil
	}
	var ms []*bn254.GT
	r1, r2, err := device.Run(
		func(ch device.Channel) error {
			var err error
			ms, err = p1.RunDecBatch(ch, cs)
			return err
		},
		p2.Serve,
	)
	if err != nil {
		return nil, nil, err
	}
	return ms, &Stats{BytesP1: r1.BytesSent(), BytesP2: r2.BytesSent()}, nil
}
