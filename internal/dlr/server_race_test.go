// Refresh-during-window race tests through the batch-window server
// path: concurrent clients decrypt across share rotations and the
// assertions pin the two invariants the server's quiescing protocol
// promises — no request is lost or misanswered, and no pre-rotation
// pairing table is replayed after the epoch advances.
//
// This file is an external test package (dlr_test) because it imports
// internal/server, which itself imports internal/dlr.
package dlr_test

import (
	"crypto/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bn254"
	"repro/internal/dlr"
	"repro/internal/params"
	"repro/internal/server"
)

func serverRaceSetup(t *testing.T) (*dlr.PublicKey, *dlr.P1, *dlr.P2) {
	t.Helper()
	pk, p1, p2, err := dlr.Gen(rand.Reader, params.MustNew(40, 128))
	if err != nil {
		t.Fatal(err)
	}
	return pk, p1, p2
}

// TestServerRefreshEpochInvalidatesTables alternates batches of
// concurrent client decrypts with share refreshes and asserts, via
// P1's batch session, that no post-rotation window can replay a
// pre-rotation table: each rotation bumps the epoch and replaces the
// session. The two rotation paths differ in what the first
// post-rotation window then finds — the cold path has dropped the
// session and rebuilds it, the pipelined path installed the next
// epoch's session at commit — and both expectations are pinned here,
// along with correct decrypts after every rotation.
func TestServerRefreshEpochInvalidatesTables(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cold      bool
		epochStep uint64
	}{
		// Cold: +1 share refresh, +1 period rotation, tables rebuilt by
		// the first post-rotation window.
		{name: "cold", cold: true, epochStep: 2},
		// Pipelined: one fused bump, tables prewarmed at commit.
		{name: "pipelined", cold: false, epochStep: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testServerRefreshEpochInvalidatesTables(t, tc.cold, tc.epochStep)
		})
	}
}

func testServerRefreshEpochInvalidatesTables(t *testing.T, cold bool, epochStep uint64) {
	pk, p1, p2 := serverRaceSetup(t)
	s := server.New(server.Config{BatchSize: 4, Window: 5 * time.Millisecond, ColdRefresh: cold})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perRound, rounds = 4, 3
	decryptRound := func() {
		t.Helper()
		msgs := make([]*bn254.GT, perRound)
		cts := make([]*dlr.Ciphertext, perRound)
		for i := range cts {
			if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
				t.Fatal(err)
			}
			if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Errorf("decrypt %d: %v", i, err)
					return
				}
				if !got.Equal(msgs[i]) {
					t.Errorf("decrypt %d: wrong plaintext", i)
				}
			}(i)
		}
		wg.Wait()
	}

	epoch, ok := s.TenantEpoch("alice")
	if !ok {
		t.Fatal("tenant not registered")
	}
	for r := 0; r < rounds; r++ {
		decryptRound()
		newEpoch, err := c.Refresh("alice")
		if err != nil {
			t.Fatalf("refresh %d: %v", r, err)
		}
		if newEpoch != epoch+epochStep {
			t.Fatalf("refresh %d: epoch = %d, want %d", r, newEpoch, epoch+epochStep)
		}
		epoch = newEpoch
		// The window loop is idle between rounds, so the session seen
		// here is the one the next window starts from.
		if warm := p1.BatchWarm(); warm == cold {
			t.Fatalf("refresh %d: batch session warm = %v after %s rotation, want %v",
				r, warm, map[bool]string{true: "cold", false: "pipelined"}[cold], !cold)
		}
		decryptRound()
		if !p1.BatchWarm() {
			t.Fatalf("refresh %d: post-rotation windows left no batch session installed", r)
		}
	}
}

// TestServerRefreshMidStreamLosesNothing races a share refresh against
// a stream of concurrent single-request clients and asserts the
// ledger balances: every accepted request is answered, every answer is
// the right plaintext, and the refresh completes. This is the
// lost-request race the window loop's between-windows quiescing
// prevents.
func TestServerRefreshMidStreamLosesNothing(t *testing.T) {
	pk, p1, p2 := serverRaceSetup(t)
	s := server.New(server.Config{BatchSize: 4, Window: 2 * time.Millisecond})
	if err := s.RegisterLocal("alice", p1, p2); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const clients = 3
	const perClient = 4
	msgs := make([]*bn254.GT, clients*perClient)
	cts := make([]*dlr.Ciphertext, clients*perClient)
	for i := range cts {
		if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
			t.Fatal(err)
		}
		if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := server.Dial(ln.Addr().String())
			if err != nil {
				t.Errorf("client %d: %v", cl, err)
				return
			}
			defer c.Close()
			for k := 0; k < perClient; k++ {
				i := cl*perClient + k
				got, err := c.Decrypt("alice", cts[i])
				if err != nil {
					t.Errorf("client %d request %d: %v", cl, k, err)
					return
				}
				if !got.Equal(msgs[i]) {
					t.Errorf("client %d request %d: wrong plaintext across rotation", cl, k)
				}
			}
		}(cl)
	}
	// Rotate mid-stream, from yet another session.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			t.Errorf("refresh client: %v", err)
			return
		}
		defer c.Close()
		time.Sleep(time.Millisecond)
		if _, err := c.Refresh("alice"); err != nil {
			t.Errorf("mid-stream refresh: %v", err)
		}
	}()
	wg.Wait()

	m := s.Metrics().Snapshot()
	if m.Responses != m.Requests {
		t.Fatalf("ledger: %d requests accepted but %d answered — a request was lost",
			m.Requests, m.Responses)
	}
	if m.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", m.Requests, clients*perClient)
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d, want 0", m.Errors)
	}
	if got := m.Refreshes; got != 1 {
		t.Fatalf("refreshes = %d, want 1", got)
	}
}
