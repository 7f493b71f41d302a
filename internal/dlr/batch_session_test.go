package dlr

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bn254"
	"repro/internal/params"
)

// The batch session (P1.batchTabs) is the one place the κ+1 batch
// pairing tables live. These tests pin its lifecycle: installed by the
// first batch of an epoch, replayed by every later batch of that epoch
// with no round trip, and dropped by every rotation so no later batch
// can replay a table built from a retired share state. The session is
// P1's batch-table cache, and the tests are named for it.

// encryptN returns n fresh ciphertexts with their plaintexts.
func encryptN(t *testing.T, pk *PublicKey, n int) ([]*Ciphertext, []*bn254.GT) {
	t.Helper()
	cs := make([]*Ciphertext, n)
	ms := make([]*bn254.GT, n)
	for i := range cs {
		m, err := RandMessage(rand.Reader, pk)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Encrypt(rand.Reader, pk, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs[i], ms[i] = ct, m
	}
	return cs, ms
}

func checkBatch(t *testing.T, got, want []*bn254.GT) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("batch returned %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("message %d wrong after batch decrypt", i)
		}
	}
}

// TestBatchCacheWarmHit runs two batches in the same epoch: the first
// pays the round trip and installs the session, the second replays it
// with no channel traffic. A P1 restored from serialized state starts
// without a session and pays its own round trip.
func TestBatchCacheWarmHit(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	cs, ms := encryptN(t, pk, 3)
	if p1.BatchWarm() {
		t.Fatal("fresh P1 reports a warm batch session")
	}
	got, stats, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 == 0 || !p1.BatchWarm() {
		t.Fatal("cold batch did not pay a round trip and install the session")
	}

	got, stats, err = DecryptBatch(p1, p2, cs[:2])
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms[:2])
	if stats.BytesP1 != 0 {
		t.Fatal("warm batch still paid a round trip")
	}

	raw, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p1b, err := UnmarshalP1(pk, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1b.BatchWarm() {
		t.Fatal("restored P1 carried a batch session through Marshal")
	}
	got, _, err = DecryptBatch(p1b, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
}

// TestBatchCacheRefreshInvalidates is the rotation-soundness
// regression test: a refresh bumps the epoch and drops the session, and
// the next batch pays a round trip for fresh tables and still decrypts
// correctly under the rotated shares.
func TestBatchCacheRefreshInvalidates(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			pk, p1, p2 := genTest(t, mode)
			cs, ms := encryptN(t, pk, 2)
			got, _, err := DecryptBatch(p1, p2, cs)
			if err != nil {
				t.Fatal(err)
			}
			checkBatch(t, got, ms)
			epochBefore := p1.Epoch()

			if _, err := Refresh(rand.Reader, p1, p2); err != nil {
				t.Fatalf("Refresh: %v", err)
			}
			if p1.Epoch() == epochBefore {
				t.Fatal("refresh did not bump the rotation epoch")
			}
			if p1.BatchWarm() {
				t.Fatal("refresh left the pre-refresh batch session installed")
			}

			got, stats, err := DecryptBatch(p1, p2, cs)
			if err != nil {
				t.Fatal(err)
			}
			checkBatch(t, got, ms)
			if stats.BytesP1 == 0 {
				t.Fatal("post-refresh batch replayed tables without a round trip")
			}
		})
	}
}

// TestBatchCachePeriodRotationInvalidates checks the same guarantee
// for BeginPeriod, which rotates skcomm (and hence the batch tables'
// key fold) without running the refresh protocol.
func TestBatchCachePeriodRotationInvalidates(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	cs, ms := encryptN(t, pk, 2)
	got, _, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	epochBefore := p1.Epoch()

	if err := p1.BeginPeriod(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if p1.Epoch() == epochBefore {
		t.Fatal("BeginPeriod did not bump the rotation epoch")
	}
	if p1.BatchWarm() {
		t.Fatal("BeginPeriod left the old batch session installed")
	}
	got, stats, err := DecryptBatch(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, got, ms)
	if stats.BytesP1 == 0 {
		t.Fatal("post-rotation batch replayed tables without a round trip")
	}
}

// TestBatchCacheMultiTenantConcurrent runs several tenants' P1
// instances decrypting and refreshing concurrently; under -race this is
// the integration-level thread-safety check over the process-wide
// state they share (fixed-base and endomorphism tables, arena pools),
// and each tenant's decrypts must stay correct throughout.
func TestBatchCacheMultiTenantConcurrent(t *testing.T) {
	const tenants = 3
	type tenantState struct {
		pk *PublicKey
		p1 *P1
		p2 *P2
	}
	sts := make([]*tenantState, tenants)
	for i := range sts {
		pk, p1, p2 := genTest(t, params.ModeOptimalRate)
		sts[i] = &tenantState{pk: pk, p1: p1, p2: p2}
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i, st := range sts {
		wg.Add(1)
		go func(i int, st *tenantState) {
			defer wg.Done()
			cs, ms := encryptN(t, st.pk, 2)
			for round := 0; round < 3; round++ {
				got, _, err := DecryptBatch(st.p1, st.p2, cs)
				if err != nil {
					errs <- fmt.Errorf("tenant %d round %d: %w", i, round, err)
					return
				}
				for j := range ms {
					if !got[j].Equal(ms[j]) {
						errs <- fmt.Errorf("tenant %d round %d: wrong message %d", i, round, j)
						return
					}
				}
				if round == 1 {
					if _, err := Refresh(rand.Reader, st.p1, st.p2); err != nil {
						errs <- fmt.Errorf("tenant %d refresh: %w", i, err)
						return
					}
				}
			}
		}(i, st)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
