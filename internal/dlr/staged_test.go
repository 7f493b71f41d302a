package dlr

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/params"
)

// TestPipelinedRefreshPreservesDecryption is the end-to-end correctness
// check for the two-phase rotation: across several staged+committed
// rotations, both the per-request and the batched protocol keep
// decrypting correctly, and each rotation advances the epoch by
// exactly one (the pipelined path folds refresh and period rotation
// into a single share-state replacement).
func TestPipelinedRefreshPreservesDecryption(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			pk, p1, p2 := genTest(t, mode)
			m, _ := RandMessage(rand.Reader, pk)
			ct, _ := Encrypt(rand.Reader, pk, m, nil)
			for i := 0; i < 3; i++ {
				epochBefore := p1.Epoch()
				p1Period, p2Period := p1.Period(), p2.Period()
				if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
					t.Fatalf("pipelined refresh %d: %v", i, err)
				}
				if p1.Epoch() != epochBefore+1 {
					t.Fatalf("rotation %d bumped epoch %d → %d, want exactly +1", i, epochBefore, p1.Epoch())
				}
				if p1.Period() != p1Period+1 || p2.Period() != p2Period+1 {
					t.Fatalf("rotation %d: periods (%d,%d) → (%d,%d), want both +1",
						i, p1Period, p2Period, p1.Period(), p2.Period())
				}
				got, _, err := Decrypt(rand.Reader, p1, p2, ct)
				if err != nil {
					t.Fatalf("decrypt after rotation %d: %v", i, err)
				}
				if !got.Equal(m) {
					t.Fatalf("wrong message after rotation %d", i)
				}
				gotB, _, err := DecryptBatch(p1, p2, []*Ciphertext{ct})
				if err != nil {
					t.Fatalf("batch decrypt after rotation %d: %v", i, err)
				}
				if !gotB[0].Equal(m) {
					t.Fatalf("wrong batched message after rotation %d", i)
				}
			}
		})
	}
}

// TestPipelinedRefreshInvariant checks Definition 3.1's consistency
// requirement for the pipelined path: the shares still reconstruct the
// same msk = g2^α after every staged rotation.
func TestPipelinedRefreshInvariant(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			_, p1, p2 := genTest(t, mode)
			recon := func() *bn254.G2 {
				sh1, err := p1.sharePlain()
				if err != nil {
					t.Fatal(err)
				}
				sk2 := p2.shareSK2()
				acc := sh1.Payload
				g2 := p1.g2
				for i, a := range sh1.Coins {
					acc = g2.Mul(acc, g2.Inv(g2.Exp(a, sk2[i])))
				}
				return acc
			}
			msk0 := recon()
			for i := 0; i < 3; i++ {
				if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
					t.Fatal(err)
				}
				if !recon().Equal(msk0) {
					t.Fatalf("pipelined rotation %d changed the shared secret", i)
				}
			}
		})
	}
}

// TestPipelinedRefreshChangesShares checks the erasure half: one
// staged rotation replaces both devices' secret memories, with no cold
// BeginPeriod needed on top.
func TestPipelinedRefreshChangesShares(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)
	s1Before := append([]byte(nil), p1.SecretBytes()...)
	s2Before := append([]byte(nil), p2.SecretBytes()...)
	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s2Before, p2.SecretBytes()) {
		t.Fatal("P2's share unchanged by pipelined refresh")
	}
	if bytes.Equal(s1Before, p1.SecretBytes()) {
		t.Fatal("P1's period key unchanged by pipelined refresh")
	}
}

// TestPipelinedRefreshPrewarmsTables is the tentpole's core claim at
// the dlr layer: after a staged rotation, the first batch of the new
// epoch is served warm — zero device round trips (empty transcript) —
// and the per-request path replays the prewarmed transport tables
// instead of rebuilding them.
func TestPipelinedRefreshPrewarmsTables(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	cs, ms := encryptN(t, pk, 2)

	// Establish a steady state: one cold batch installs the session.
	got, _, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	oldTrans := p1.transportTables()

	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if !p1.BatchWarm() {
		t.Fatal("commit did not install a warm batch session")
	}
	prewarmed := p1.transTabs
	if len(prewarmed) != p1.prm.Ell+1 {
		t.Fatalf("commit installed %d transport tables, want ℓ+1 = %d", len(prewarmed), p1.prm.Ell+1)
	}
	if prewarmed[0] == oldTrans[0] {
		t.Fatal("commit kept the retired epoch's transport tables")
	}
	got, stats, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 != 0 || stats.BytesP2 != 0 {
		t.Fatalf("first post-rotation batch used the channel (%d/%d bytes); want a fully local warm batch",
			stats.BytesP1, stats.BytesP2)
	}

	// The per-request path must also be warm: RunDec replays the staged
	// transport tables rather than rebuilding them.
	m2, _ := RandMessage(rand.Reader, pk)
	ct2, _ := Encrypt(rand.Reader, pk, m2, nil)
	gotOne, _, err := Decrypt(rand.Reader, p1, p2, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !gotOne.Equal(m2) {
		t.Fatal("per-request decrypt wrong after prewarmed rotation")
	}
	if p1.transTabs[0] != prewarmed[0] {
		t.Fatal("per-request path rebuilt the transport tables after a prewarmed rotation")
	}
}

// TestStagedRefreshStaleness pins the commit guards: a staged refresh
// from an older epoch must be refused (another rotation landed first),
// and a consumed or abandoned staging cannot be committed.
func TestStagedRefreshStaleness(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)

	st, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A competing cold rotation lands first.
	if _, err := Refresh(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if err := p1.CommitRefresh(rand.Reader, nil, st); err == nil {
		t.Fatal("stale staged refresh committed")
	}
	st.Abandon()

	// A fresh stage commits once and only once.
	st2, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := deviceRunCommit(p1, p2, st2); err != nil {
		t.Fatalf("fresh staged commit failed: %v", err)
	}
	if err := p1.CommitRefresh(rand.Reader, nil, st2); err == nil {
		t.Fatal("consumed staged refresh committed twice")
	}

	st3, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	st3.Abandon()
	if err := p1.CommitRefresh(rand.Reader, nil, st3); err == nil {
		t.Fatal("abandoned staged refresh committed")
	}
}

// TestBatchSessionSkipsRoundTrip pins the steady-state transport
// contract: only the first batch of an epoch touches the device
// channel; every later batch of the epoch has an empty transcript, and
// a rotation re-arms exactly one round trip.
func TestBatchSessionSkipsRoundTrip(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	cs, ms := encryptN(t, pk, 2)

	got, stats, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 == 0 {
		t.Fatal("cold batch sent nothing — expected the u round trip")
	}

	got, stats, err = DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 != 0 || stats.BytesP2 != 0 {
		t.Fatalf("warm batch used the channel (%d/%d bytes)", stats.BytesP1, stats.BytesP2)
	}

	// A cold rotation drops the session: the next batch must do the
	// round trip again (fresh u under the rotated shares).
	if _, err := Refresh(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	got, stats, err = DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 == 0 {
		t.Fatal("post-rotation batch skipped the round trip — stale session survived")
	}
}

// deviceRunCommit commits st over a fresh in-process pair (test
// helper; RefreshPipelined stages internally so can't be used here).
func deviceRunCommit(p1 *P1, p2 *P2, st *StagedRefresh) (int64, int64, error) {
	var b1, b2 int64
	r1, r2, err := device.Run(
		func(ch device.Channel) error { return p1.CommitRefresh(rand.Reader, ch, st) },
		p2.Serve,
	)
	if r1 != nil {
		b1 = r1.BytesSent()
	}
	if r2 != nil {
		b2 = r2.BytesSent()
	}
	return b1, b2, err
}
