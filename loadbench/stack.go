package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/opcount"
	"repro/internal/params"
	"repro/internal/server"
)

// prm is the parameter set every key uses: n = 40, λ = 128, which gives
// κ = 2 and ℓ = 14 (the set experiments E13–E18 use).
var prm = params.MustNew(40, 128)

// tenantState is one registered tenant as the generator sees it: its
// public key, the observed device link, and its seeded input pool.
type tenantState struct {
	name   string
	pk     *dlr.PublicKey
	link   *devLink
	p2Done chan struct{} // closes when the tenant's P2 serve loop exits
	msgs   []*bn254.GT
	cts    []*dlr.Ciphertext
}

// stack is one running service: a server on a loopback listener, its
// tenants with in-process P2 devices, and the generator's two client
// connections.
type stack struct {
	w       *workload
	tr      *tracer
	ctrP1   *opcount.Counter // nil unless the stack is traced
	ctrP2   *opcount.Counter
	srv     *server.Server
	ln      *countingListener
	serve   chan error
	clients []*server.Client
	tenants []*tenantState
	reqIDs  atomic.Uint64
}

// connFor returns the client connection tenant ti is served over when
// the workload pins tenants to connections (one connection each), or
// the worker's own connection otherwise.
func (st *stack) connFor(ti, worker int) *server.Client {
	if len(st.tenants) > 1 {
		return st.clients[ti%len(st.clients)]
	}
	return st.clients[worker%len(st.clients)]
}

// startStack builds the service for w and returns it with its set-up
// time: from the first dlr.Gen to the first verified decrypt of every
// tenant, lazy table builds included. Encrypting the check message is
// excluded. With a tracer, every tenant's devices carry op counters.
func startStack(w *workload, seed uint64, tr *tracer) (st *stack, setup time.Duration, err error) {
	st = &stack{w: w, tr: tr}
	if tr != nil {
		st.ctrP1, st.ctrP2 = opcount.New(), opcount.New()
	}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()

	begin := time.Now()
	var excluded time.Duration
	st.srv = server.New(w.cfg)
	for i := 0; i < w.tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		pk, p1, p2, err := dlr.Gen(newSeeded(seed, "keys/"+name), prm, dlr.WithCounters(st.ctrP1, st.ctrP2))
		if err != nil {
			return st, 0, fmt.Errorf("gen %s: %w", name, err)
		}
		t := &tenantState{name: name, pk: pk, link: &devLink{tr: tr}, p2Done: make(chan struct{})}
		st.tenants = append(st.tenants, t)
		a, b := device.NewLocalPair()
		go func() {
			defer close(t.p2Done)
			// The loop ends with an error when the server closes its end.
			_ = p2.ServeLoop(&p2End{Channel: b, l: t.link})
			_ = b.Close()
		}()
		if err := st.srv.RegisterTenant(name, p1, &p1End{Channel: a, l: t.link}, a.Close); err != nil {
			_ = a.Close()
			return st, 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, 0, err
	}
	st.ln = &countingListener{Listener: ln, tr: tr}
	st.serve = make(chan error, 1)
	go func() { st.serve <- st.srv.Serve(st.ln) }()
	for i := 0; i < 2; i++ {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			return st, 0, err
		}
		st.clients = append(st.clients, c)
	}
	for i, t := range st.tenants {
		encStart := time.Now()
		rng := newSeeded(seed, "check/"+t.name)
		m, err := dlr.RandMessage(rng, t.pk)
		if err != nil {
			return st, 0, err
		}
		ct, err := dlr.Encrypt(rng, t.pk, m, nil)
		if err != nil {
			return st, 0, err
		}
		excluded += time.Since(encStart)
		got, err := st.connFor(i, 0).Decrypt(t.name, ct)
		if err != nil {
			return st, 0, fmt.Errorf("first decrypt of %s: %w", t.name, err)
		}
		if !got.Equal(m) {
			return st, 0, &fatalError{fmt.Sprintf("wrong plaintext on the first decrypt of %s", t.name)}
		}
	}
	return st, time.Since(begin) - excluded, nil
}

// fillInputs encrypts n seeded plaintexts per tenant. It runs after
// set-up and is not timed.
func (st *stack) fillInputs(seed uint64, n int) error {
	for _, t := range st.tenants {
		rng := newSeeded(seed, "inputs/"+t.name)
		t.msgs = make([]*bn254.GT, n)
		t.cts = make([]*dlr.Ciphertext, n)
		for i := range t.cts {
			m, err := dlr.RandMessage(rng, t.pk)
			if err != nil {
				return err
			}
			ct, err := dlr.Encrypt(rng, t.pk, m, nil)
			if err != nil {
				return err
			}
			t.msgs[i], t.cts[i] = m, ct
		}
	}
	return nil
}

// close shuts the service down and waits for every goroutine it
// started: the server (which drains windows and closes the device
// channels), the accept loop and each P2 serve loop. Safe on a
// partially started stack.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Shutdown()
	}
	if st.serve != nil {
		// Shutdown closes the listeners Serve registered; closing ours
		// too covers a Serve that had not registered it yet.
		_ = st.ln.Close()
		<-st.serve
	}
	for _, c := range st.clients {
		_ = c.Close()
	}
	for _, t := range st.tenants {
		<-t.p2Done
	}
}

// fatalError is a wrong plaintext or a stale epoch: the run aborts with
// a non-zero exit instead of counting it as a failure.
type fatalError struct{ msg string }

func (e *fatalError) Error() string { return e.msg }
