// Package server implements the long-lived P1-side daemon of ROADMAP
// item 2: many client sessions multiplexed over the internal/wire
// framing, all concurrent decrypt requests coalesced into per-tenant
// adaptive batch windows, and every window drained through one
// dlr.RunDecBatch round trip against the tenant's device channel — the
// cross-connection continuous-batching that turns PR 3's ~30×
// single-caller amortization into a property of the service rather
// than of one caller's batch.
//
// Dataflow (docs/ARCHITECTURE.md has the diagram):
//
//	sessions (1 goroutine per conn, mux frames with request ids)
//	    │ bounded per-tenant queue — full ⇒ srv.busy + retry-after
//	    ▼
//	per-tenant window loop — closes on max(batch size, deadline)
//	    │ one RunDecBatch round trip per window
//	    ▼
//	device channel to P2 ──► results fan back to their sessions,
//	                         out of order, routed by request id
//
// Windows are per-tenant so the tenant's batch session stays warm
// across windows of one share state, and so a share refresh quiesces
// exactly one tenant's window while every other tenant keeps serving.
package server

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Mux frame kinds of the client↔server protocol. Requests carry a
// per-connection id; the response (or rejection) echoes it.
const (
	// KindDec requests one decryption: payload = tenant (length-
	// prefixed) ‖ dlr.Ciphertext bytes.
	KindDec = "srv.dec"
	// KindDecResult answers a KindDec: payload = GT session bytes.
	KindDecResult = "srv.decr"
	// KindBusy rejects a request under backpressure: payload =
	// suggested retry-after in microseconds (uint32).
	KindBusy = "srv.busy"
	// KindErr answers a failed request: payload = message (length-
	// prefixed).
	KindErr = "srv.err"
	// KindRefresh requests a zero-downtime share refresh: payload =
	// tenant (length-prefixed).
	KindRefresh = "srv.ref"
	// KindRefreshed answers a completed KindRefresh: payload = the
	// tenant's new rotation epoch (uint32 high ‖ uint32 low).
	KindRefreshed = "srv.refr"
)

// Config shapes a Server.
type Config struct {
	// BatchSize closes a window when this many requests have
	// coalesced. Default 32.
	BatchSize int
	// Window closes a non-full window this long after its first
	// request arrived — the latency bound a lone request pays for the
	// chance of amortization. Zero means the default, 2ms; a negative
	// value drains eagerly: a window takes only what is already queued.
	Window time.Duration
	// QueueDepth bounds each tenant's request queue; a request
	// arriving at a full queue is rejected with KindBusy rather than
	// buffered without bound. Default 4×BatchSize.
	QueueDepth int
	// RetryAfter is the backoff hint sent with KindBusy. Default 2ms.
	RetryAfter time.Duration
	// Serial bypasses the batch windows and serves every request
	// through the per-request protocol (dlr.RunDec, one round trip per
	// request) — the pre-batching baseline the E16 experiment measures
	// the windows against.
	Serial bool
	// RefreshEvery, when positive, runs a per-tenant rotation scheduler:
	// every tenant's shares are refreshed on this cadence without any
	// client asking (the paper's leakage bounds are per-period, so a
	// production deployment rotates continually). Zero disables the
	// scheduler; RefreshTenant remains available either way.
	RefreshEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Window == 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.BatchSize
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Millisecond
	}
	return c
}

// request is one queued decrypt request.
type request struct {
	ct *dlr.Ciphertext
	// enq is when the request entered the queue; responses report
	// queue-to-response latency against it.
	enq time.Time
	// sess is the session that queued the request. respond enqueues the
	// response frame on it; the window loop flushes each distinct
	// session once per drained window (one write syscall instead of one
	// per response).
	sess *session
	// respond delivers the result back to the session that queued the
	// request. Called exactly once, from the tenant's window loop.
	respond func(m *bn254.GT, err error)
}

// control is an out-of-band operation on a tenant's window loop,
// executed between windows so it can never interleave with a drain on
// the shared device channel. run is the operation itself; its result
// is delivered on done.
type control struct {
	run  func() error
	done chan error
}

// tenant is one registered share state: P1, its device channel to P2,
// and the window machinery.
type tenant struct {
	name     string
	p1       *dlr.P1
	dev      device.Channel
	closeDev func() error

	queue chan *request
	ctl   chan *control
	// done closes when the window loop has drained and exited.
	done chan struct{}
	// refreshMu serializes rotations of this tenant: the staged share
	// state must not race a competing stage or commit. Serving is NOT
	// excluded — that is the point of the pipelined path.
	refreshMu sync.Mutex
	// stopRot stops the tenant's rotation scheduler (when RefreshEvery
	// is set).
	stopRot chan struct{}
}

// Server is the multiplexed batch-window daemon.
//
// Lock order, outermost first (enforced by dlrlint lock-discipline;
// see docs/ARCHITECTURE.md "Static analysis"). In practice the locks
// are never nested — each protects a disjoint phase — but the declared
// order keeps future nesting honest:
//
//dlr:lock-order mu refreshMu intakeMu wmu
type Server struct {
	cfg     Config
	metrics *Metrics
	tenants *storage.Striped[*tenant]

	// intakeMu orders request intake against shutdown: enqueues hold
	// the read side, the drain flag flips under the write side, so no
	// request can slip into a queue after draining began.
	intakeMu sync.RWMutex
	//dlr:guarded-by intakeMu
	draining bool

	mu sync.Mutex
	//dlr:guarded-by mu
	closed bool
	//dlr:guarded-by mu
	lns map[net.Listener]struct{}
	//dlr:guarded-by mu
	conns map[net.Conn]struct{}

	loopWG sync.WaitGroup // per-tenant window loops
	connWG sync.WaitGroup // per-connection session handlers
	rotWG  sync.WaitGroup // per-tenant rotation schedulers
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		metrics: newMetrics(),
		tenants: storage.NewStriped[*tenant](),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Metrics returns the server's serving-path counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// RegisterTenant installs a tenant: p1 is the share state the server
// serves, dev the channel to the tenant's P2 device. closeDev, when
// non-nil, is called during Shutdown after the tenant's window loop
// has drained (e.g. to close the underlying connection). The tenant's
// window loop starts immediately.
func (s *Server) RegisterTenant(name string, p1 *dlr.P1, dev device.Channel, closeDev func() error) error {
	if p1 == nil || dev == nil {
		return fmt.Errorf("server: tenant %q needs a P1 and a device channel", name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: registering tenant %q on a closed server", name)
	}
	s.mu.Unlock()
	t := &tenant{
		name: name, p1: p1, dev: dev, closeDev: closeDev,
		queue:   make(chan *request, s.cfg.QueueDepth),
		ctl:     make(chan *control),
		done:    make(chan struct{}),
		stopRot: make(chan struct{}),
	}
	if _, stored := s.tenants.PutIfAbsent(name, t); !stored {
		return fmt.Errorf("server: tenant %q already registered", name)
	}
	s.loopWG.Add(1)
	go s.windowLoop(t)
	if s.cfg.RefreshEvery > 0 {
		s.rotWG.Add(1)
		go s.rotationLoop(t)
	}
	return nil
}

// RegisterLocal registers a tenant whose P2 runs in-process: the
// device channel is an in-memory pair with p2's serve loop on the far
// end. This is the shape tests, benchmarks and single-process
// deployments use.
func (s *Server) RegisterLocal(name string, p1 *dlr.P1, p2 *dlr.P2) error {
	a, b := device.NewLocalPair()
	go func() {
		// The loop exits with an error when the server closes its end.
		_ = p2.ServeLoop(b)
		_ = b.Close()
	}()
	return s.RegisterTenant(name, p1, a, a.Close)
}

// TenantEpoch returns the rotation epoch of a registered tenant's
// share state.
func (s *Server) TenantEpoch(name string) (uint64, bool) {
	t, ok := s.tenants.Get(name)
	if !ok {
		return 0, false
	}
	return t.p1.Epoch(), true
}

// Tenants returns the registered tenant names, sorted.
func (s *Server) Tenants() []string { return s.tenants.Keys() }

// QueueDepth returns the current number of queued requests across all
// tenants — the live gauge behind the docs' queue-depth guidance.
func (s *Server) QueueDepth() int {
	n := 0
	s.tenants.Range(func(_ string, t *tenant) bool {
		n += len(t.queue)
		return true
	})
	return n
}

// RefreshTenant rotates one tenant's shares with zero downtime for
// every other tenant and near-zero stall for the tenant itself.
//
// The next-epoch share material and its pairing tables are staged by
// dlr.P1.StageRefresh concurrently with serving (staging only reads
// share state, which mutates exclusively on the window loop, and
// refreshMu excludes competing rotations). Only the commit — one
// device round trip plus an atomic state flip — runs on the window
// loop between batch windows, so the serving stall is the commit's
// duration, not the full rebuild's. The first post-commit window finds
// prewarmed tables and a warm batch session.
func (s *Server) RefreshTenant(name string) error {
	t, ok := s.tenants.Get(name)
	if !ok {
		return fmt.Errorf("server: unknown tenant %q", name)
	}
	t.refreshMu.Lock()
	defer t.refreshMu.Unlock()
	buildStart := time.Now()
	st, err := t.p1.StageRefresh(rand.Reader)
	if err != nil {
		return fmt.Errorf("server: staging refresh for %q: %w", name, err)
	}
	rebuild := time.Since(buildStart)
	var stall time.Duration
	err = s.execOnLoop(t, func() error {
		start := time.Now()
		defer func() { stall = time.Since(start) }()
		return t.p1.CommitRefresh(rand.Reader, t.dev, st)
	})
	if err != nil {
		st.Abandon()
		return fmt.Errorf("server: committing refresh for %q: %w", name, err)
	}
	s.metrics.recordRotation(stall, rebuild)
	return nil
}

// execOnLoop runs op on the tenant's window loop, strictly between
// batch windows, and returns its result.
func (s *Server) execOnLoop(t *tenant, op func() error) error {
	c := &control{run: op, done: make(chan error, 1)}
	select {
	case t.ctl <- c:
	case <-t.done:
		return fmt.Errorf("server: tenant %q window loop stopped", t.name)
	}
	select {
	case err := <-c.done:
		return err
	case <-t.done:
		return fmt.Errorf("server: tenant %q window loop stopped during control op", t.name)
	}
}

// rotationLoop is the per-tenant refresh scheduler: every RefreshEvery
// it rotates the tenant's shares through RefreshTenant. It exits when
// Shutdown signals stopRot (before the window loops drain, so no
// rotation can land on a closed loop).
func (s *Server) rotationLoop(t *tenant) {
	defer s.rotWG.Done()
	ticker := time.NewTicker(s.cfg.RefreshEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			// An error here means the loop stopped (shutdown racing the
			// tick) or the device failed; either way the scheduler keeps
			// its cadence and the next tick retries.
			_ = s.RefreshTenant(t.name)
		case <-t.stopRot:
			return
		case <-t.done:
			return
		}
	}
}

// Serve accepts connections on ln until the listener closes (Shutdown
// closes every registered listener). Each connection gets a session
// goroutine; Serve itself blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: Serve on closed server")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown stops the server gracefully: listeners close (no new
// sessions), intake stops (new requests are refused), every tenant's
// window loop drains its queued requests through final batch windows
// and exits, and only then do the session connections and device
// channels close. Queued requests are answered, not dropped.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for ln := range s.lns {
		_ = ln.Close()
	}
	s.mu.Unlock()

	// Stop the rotation schedulers first and wait out any in-flight
	// scheduled rotation: the window loops are still alive here, so a
	// committing rotation finishes normally instead of landing on a
	// drained loop.
	s.tenants.Range(func(_ string, t *tenant) bool {
		close(t.stopRot)
		return true
	})
	s.rotWG.Wait()

	// Flip the drain flag under the write lock: after this, no session
	// can be mid-enqueue, so closing the queues is race-free.
	s.intakeMu.Lock()
	s.draining = true
	s.intakeMu.Unlock()

	s.tenants.Range(func(_ string, t *tenant) bool {
		close(t.queue)
		return true
	})
	s.loopWG.Wait()

	s.tenants.Range(func(_ string, t *tenant) bool {
		if t.closeDev != nil {
			_ = t.closeDev()
		}
		return true
	})

	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

// session is one client connection: a read loop plus a write mutex so
// window loops (which answer out of order) never interleave frames.
// Responses produced while draining a batch window are not written one
// by one: respond closures append their frames to pend under wmu, and
// the window loop flushes the coalesced buffer with a single
// conn.Write per (connection, window) — 32 response syscalls become
// one.
type session struct {
	conn net.Conn
	m    *Metrics
	wmu  sync.Mutex
	//dlr:guarded-by wmu
	pend []byte // encoded frames awaiting flush
	//dlr:guarded-by wmu
	npend int // frames in pend
}

// send writes one mux frame immediately; on write failure the
// connection is closed so the session's read loop terminates and the
// client sees the break. Used off the window path (rejections, parse
// errors, refresh acks), where there is nothing to coalesce with.
func (ss *session) send(m wire.MuxMsg) {
	ss.wmu.Lock()
	// wmu is the per-connection frame serializer: holding it across the
	// write is what keeps concurrently-answering window loops from
	// interleaving frames. Nothing else is acquired under it.
	//dlrlint:ignore lock-discipline wmu serializes frame writes on this conn; holding it across the write is its purpose
	err := wire.WriteMux(ss.conn, m)
	ss.wmu.Unlock()
	if err != nil {
		_ = ss.conn.Close()
		return
	}
	ss.m.recordOutbound(1, m.Size())
}

// enqueue appends m to the session's pending flush buffer. The frame
// reaches the wire at the next flush.
func (ss *session) enqueue(m wire.MuxMsg) {
	ss.wmu.Lock()
	p, err := wire.AppendMux(ss.pend, m)
	if err == nil {
		ss.pend = p
		ss.npend++
	}
	ss.wmu.Unlock()
	if err != nil {
		// Oversized frame: surface as a connection break, matching send.
		_ = ss.conn.Close()
	}
}

// flush writes every pending frame in one conn.Write. The buffer is
// retained (length-reset) for the session's next window.
func (ss *session) flush() {
	ss.wmu.Lock()
	if len(ss.pend) == 0 {
		ss.wmu.Unlock()
		return
	}
	n, frames := len(ss.pend), ss.npend
	// Same contract as send: wmu serializes conn writes, and the flush
	// must be atomic with the buffer reset below.
	//dlrlint:ignore lock-discipline wmu serializes frame writes on this conn; the flush and buffer reset must be atomic
	_, err := ss.conn.Write(ss.pend)
	ss.pend = ss.pend[:0]
	ss.npend = 0
	ss.wmu.Unlock()
	if err != nil {
		_ = ss.conn.Close()
		return
	}
	ss.m.recordOutbound(frames, n)
}

func (ss *session) sendErr(id uint64, msg string) {
	var b wire.Builder
	b.AppendBytes([]byte(msg))
	ss.send(wire.MuxMsg{ID: id, Kind: KindErr, Payload: b.Bytes()})
}

// enqueueErr is sendErr's coalescing twin for the window drain path.
func (ss *session) enqueueErr(id uint64, msg string) {
	var b wire.Builder
	b.AppendBytes([]byte(msg))
	ss.enqueue(wire.MuxMsg{ID: id, Kind: KindErr, Payload: b.Bytes()})
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	ss := &session{conn: conn, m: s.metrics}
	// The reader reuses one payload buffer across frames; handleDec
	// decodes the ciphertext out of it before the next read, and the
	// refresh path (which crosses a goroutine boundary) copies.
	rd := wire.NewReader(conn)
	for {
		m, err := rd.NextMux()
		if err != nil {
			return
		}
		s.metrics.recordInbound(1, m.Size())
		switch m.Kind {
		case KindDec:
			s.handleDec(ss, m)
		case KindRefresh:
			// Refresh blocks until the tenant's window quiesces; run it
			// off the read loop so the session keeps pumping requests
			// for other tenants meanwhile. The payload is copied: the
			// goroutine outlives this iteration's reader scratch.
			m.Payload = append([]byte(nil), m.Payload...)
			s.connWG.Add(1)
			go func(m wire.MuxMsg) {
				defer s.connWG.Done()
				s.handleRefresh(ss, m)
			}(m)
		default:
			ss.sendErr(m.ID, fmt.Sprintf("unknown frame kind %q", m.Kind))
		}
	}
}

// handleDec parses a decrypt request and places it into its tenant's
// window queue, applying backpressure when the queue is full. m's
// payload is the session reader's scratch: everything that outlives
// this call (the queued request, the respond closure) is decoded out
// of it before returning.
//
//dlr:borrowed m
func (s *Server) handleDec(ss *session, m wire.MuxMsg) {
	p := wire.NewParser(m.Payload)
	tenantName, err := p.Bytes()
	if err != nil {
		ss.sendErr(m.ID, fmt.Sprintf("bad request: %v", err))
		return
	}
	raw, err := p.Raw(p.Remaining())
	if err != nil {
		ss.sendErr(m.ID, fmt.Sprintf("bad request: %v", err))
		return
	}
	ct, err := dlr.CiphertextFromBytes(raw)
	if err != nil {
		ss.sendErr(m.ID, fmt.Sprintf("bad ciphertext: %v", err))
		return
	}
	t, ok := s.tenants.Get(string(tenantName))
	if !ok {
		ss.sendErr(m.ID, fmt.Sprintf("unknown tenant %q", tenantName))
		return
	}

	id := m.ID
	req := &request{ct: ct, enq: time.Now(), sess: ss}
	req.respond = func(msg *bn254.GT, derr error) {
		s.metrics.recordResponse(time.Since(req.enq), derr != nil)
		if derr != nil {
			ss.enqueueErr(id, fmt.Sprintf("decrypt: %v", derr))
			return
		}
		ss.enqueue(wire.MuxMsg{ID: id, Kind: KindDecResult, Payload: msg.Bytes()})
	}

	s.intakeMu.RLock()
	if s.draining {
		s.intakeMu.RUnlock()
		ss.sendErr(id, "server shutting down")
		return
	}
	select {
	case t.queue <- req:
		s.intakeMu.RUnlock()
		s.metrics.recordRequest()
	default:
		s.intakeMu.RUnlock()
		s.metrics.recordRejected()
		var b wire.Builder
		b.AppendUint32(uint32(s.cfg.RetryAfter.Microseconds()))
		ss.send(wire.MuxMsg{ID: id, Kind: KindBusy, Payload: b.Bytes()})
	}
}

func (s *Server) handleRefresh(ss *session, m wire.MuxMsg) {
	p := wire.NewParser(m.Payload)
	tenantName, err := p.Bytes()
	if err != nil {
		ss.sendErr(m.ID, fmt.Sprintf("bad request: %v", err))
		return
	}
	if err := s.RefreshTenant(string(tenantName)); err != nil {
		ss.sendErr(m.ID, fmt.Sprintf("refresh: %v", err))
		return
	}
	epoch, _ := s.TenantEpoch(string(tenantName))
	var b wire.Builder
	b.AppendUint32(uint32(epoch >> 32))
	b.AppendUint32(uint32(epoch))
	ss.send(wire.MuxMsg{ID: m.ID, Kind: KindRefreshed, Payload: b.Bytes()})
}
