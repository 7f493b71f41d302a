package server_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestRotationStorm hammers one tenant with back-to-back pipelined
// rotations while sustained decrypt load flows through the server
// path, and pins the two storm invariants: no accepted request is
// lost or misanswered (the ledger balances with zero errors), and no
// response is computed against a stale epoch's tables — every
// plaintext must be correct even when its window raced a commit.
func TestRotationStorm(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	s := server.New(server.Config{BatchSize: 4, Window: time.Millisecond})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	const clients = 3
	const perClient = 6
	msgs, cts := encryptN(t, pk, clients*perClient)

	// The storm: rotate continuously until the load goroutines finish.
	var stop atomic.Bool
	var rotations atomic.Uint64
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		for !stop.Load() {
			if err := s.RefreshTenant("alice"); err != nil {
				t.Errorf("storm rotation: %v", err)
				return
			}
			rotations.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := dialClient(t, addr)
			for k := 0; k < perClient; k++ {
				i := cl*perClient + k
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Errorf("client %d request %d: %v", cl, k, err)
					return
				}
				if !got.Equal(msgs[i]) {
					t.Errorf("client %d request %d: wrong plaintext under rotation storm — a stale epoch's tables answered", cl, k)
				}
			}
		}(cl)
	}
	wg.Wait()
	stop.Store(true)
	stormWG.Wait()

	if rotations.Load() == 0 {
		t.Fatal("storm completed zero rotations — the test raced nothing")
	}
	m := s.Metrics().Snapshot()
	if m.Responses != m.Requests {
		t.Fatalf("ledger: %d requests accepted but %d answered — a request was lost in the storm",
			m.Requests, m.Responses)
	}
	if m.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", m.Requests, clients*perClient)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d, want 0", m.Errors)
	}
	if m.Refreshes != rotations.Load() {
		t.Fatalf("metrics counted %d refreshes, storm ran %d", m.Refreshes, rotations.Load())
	}
	if m.RotationsPrewarmed != rotations.Load() || m.RotationsCold != 0 {
		t.Fatalf("rotation path counters (%d prewarmed, %d cold), want (%d, 0)",
			m.RotationsPrewarmed, m.RotationsCold, rotations.Load())
	}
}

// TestRotationScheduler runs the RefreshEvery scheduler at an
// aggressive cadence under decrypt load and checks rotations happen on
// their own, serving stays correct throughout, and Shutdown stops the
// scheduler cleanly (no rotation lands on a drained window loop).
func TestRotationScheduler(t *testing.T) {
	pk, p1, p2 := testInstance(t)
	s := server.New(server.Config{
		BatchSize:    4,
		Window:       time.Millisecond,
		RefreshEvery: 5 * time.Millisecond,
	})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c := dialClient(t, addr)

	epochBefore, _ := s.TenantEpoch("alice")
	const n = 10
	msgs, cts := encryptN(t, pk, n)
	for i := 0; i < n; i++ {
		got, err := c.Decrypt("alice", cts[i])
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !got.Equal(msgs[i]) {
			t.Fatalf("request %d: wrong plaintext under scheduled rotation", i)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if epoch, _ := s.TenantEpoch("alice"); epoch > epochBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler rotated nothing within the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	// Shutdown (in the startServer cleanup) must stop the scheduler
	// without racing the drained loops; reaching cleanup IS the check.
}
