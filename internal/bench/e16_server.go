package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bn254"
	"repro/internal/dlr"
	"repro/internal/server"
)

// E16 measures cross-connection continuous batching: N concurrent
// single-request clients drive real TCP sessions against the
// internal/server daemon, once through the serial one-request-per-
// round-trip path and once through the adaptive batch windows. The
// clients are closed-loop (each sends its next request only after its
// previous answer), so every window's occupancy is earned by genuine
// concurrency, not by a pre-batched caller. Acceptance criterion:
// ≥10× amortized per-request improvement at 32 concurrent clients.

// e16WindowWait is the batch-window deadline the E16 server runs with —
// long enough that closed-loop clients re-arrive within the window on a
// loaded 1-CPU box, short enough to stay honest as a latency bound.
const e16WindowWait = 10 * time.Millisecond

// ServerPoint is one measured (mode, concurrency) cell of E16.
type ServerPoint struct {
	Mode      string // "serial" or "window"
	Clients   int
	Requests  int
	Wall      time.Duration
	PerReq    time.Duration // amortized: Wall / Requests
	ReqPerSec float64
	// Window-scheduler shape for the run (zero in serial mode).
	Windows       uint64
	MeanOccupancy float64
	P50, P99      time.Duration
	// Client-facing wire traffic for the run (E18's bytes-per-request
	// accounting).
	BytesIn, BytesOut   uint64
	FramesIn, FramesOut uint64
}

// serverRun stands up a fresh DLR instance behind a batch-window (or
// serial) server on a loopback listener, drives it with `clients`
// concurrent single-request sessions issuing perClient requests each,
// verifies every plaintext, and reports the amortized cost.
func serverRun(cfg server.Config, clients, perClient int) (*ServerPoint, error) {
	pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
	if err != nil {
		return nil, err
	}
	s := server.New(cfg)
	if err := s.RegisterLocal("e16", p1, p2); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	defer func() {
		s.Shutdown()
		<-serveDone
	}()

	total := clients * perClient
	msgs := make([]*bn254.GT, total)
	cts := make([]*dlr.Ciphertext, total)
	for i := range cts {
		if msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
			return nil, err
		}
		if cts[i], err = dlr.Encrypt(rand.Reader, pk, msgs[i], nil); err != nil {
			return nil, err
		}
	}

	// Every client dials its own session up front so the timed region
	// is pure request traffic.
	conns := make([]*server.Client, clients)
	for i := range conns {
		if conns[i], err = server.Dial(ln.Addr().String()); err != nil {
			return nil, err
		}
		defer conns[i].Close()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := cl*perClient + k
				got, err := conns[cl].Decrypt("e16", cts[i])
				if err == nil && !got.Equal(msgs[i]) {
					err = fmt.Errorf("bench: E16 client %d request %d decrypted wrong", cl, k)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}

	mode := "window"
	if cfg.Serial {
		mode = "serial"
	}
	snap := s.Metrics().Snapshot()
	return &ServerPoint{
		Mode:          mode,
		Clients:       clients,
		Requests:      total,
		Wall:          wall,
		PerReq:        wall / time.Duration(total),
		ReqPerSec:     float64(total) / wall.Seconds(),
		Windows:       snap.Windows,
		MeanOccupancy: snap.MeanOccupancy,
		P50:           snap.P50,
		P99:           snap.P99,
		BytesIn:       snap.BytesIn,
		BytesOut:      snap.BytesOut,
		FramesIn:      snap.FramesIn,
		FramesOut:     snap.FramesOut,
	}, nil
}

// e16WindowCfg is the batch-window configuration E16 measures: windows
// close at 32 requests or after e16WindowWait; consecutive windows of
// one epoch replay the tenant's batch session.
func e16WindowCfg() server.Config {
	return server.Config{BatchSize: 32, Window: e16WindowWait}
}

// E16SerialBaseline measures the one-request-per-round-trip server path
// at the given concurrency. Exported for the dlrbench -server sweep.
func E16SerialBaseline(clients, perClient int) (*ServerPoint, error) {
	return serverRun(server.Config{Serial: true}, clients, perClient)
}

// E16WindowRun measures the batch-window server path at the given
// concurrency. Exported for the dlrbench -server sweep.
func E16WindowRun(clients, perClient int) (*ServerPoint, error) {
	return serverRun(e16WindowCfg(), clients, perClient)
}

// E16Measurements produces the baseline-JSON rows for the server path:
// the amortized per-request cost of 32 concurrent single-request
// clients through the batch windows, against the same offered load
// through the serial path.
func E16Measurements() ([]FastPathMeasurement, error) {
	serial, err := E16SerialBaseline(32, 1)
	if err != nil {
		return nil, err
	}
	window, err := E16WindowRun(32, 2)
	if err != nil {
		return nil, err
	}
	ref := float64(serial.PerReq.Nanoseconds())
	fast := float64(window.PerReq.Nanoseconds())
	return []FastPathMeasurement{{
		Op:          "DLR.Dec server (serial→window, 32 clients, amortized)",
		Iters:       serial.Requests,
		RefNsPerOp:  ref,
		FastNsPerOp: fast,
		Speedup:     ref / fast,
	}}, nil
}

// E16Server regenerates the E16 table: the serial-vs-window amortized
// cost at 1, 8 and 32 concurrent single-request clients.
func E16Server() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "continuous batching: multiplexed decrypt server, serial vs batch windows",
		Header: []string{"clients", "mode", "req/s", "per-request", "mean window", "p50", "p99"},
	}
	var serialPerReq, windowPerReq time.Duration
	for _, clients := range []int{1, 8, 32} {
		perClient := 2
		if clients == 1 {
			perClient = 4
		}
		// The serial baseline is the expensive side; one request per
		// client bounds its runtime while keeping the offered
		// concurrency identical.
		serial, err := E16SerialBaseline(clients, 1)
		if err != nil {
			return nil, err
		}
		window, err := E16WindowRun(clients, perClient)
		if err != nil {
			return nil, err
		}
		if clients == 32 {
			serialPerReq, windowPerReq = serial.PerReq, window.PerReq
		}
		for _, pt := range []*ServerPoint{serial, window} {
			occ := "—"
			if pt.Mode == "window" {
				occ = fmt.Sprintf("%.1f", pt.MeanOccupancy)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", pt.Clients), pt.Mode,
				fmt.Sprintf("%.1f", pt.ReqPerSec),
				ms(pt.PerReq), occ, ms(pt.P50), ms(pt.P99),
			})
		}
	}
	if windowPerReq > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"32 concurrent single-request clients: %.1f× amortized per-request improvement (serial %s → window %s)",
			float64(serialPerReq)/float64(windowPerReq), ms(serialPerReq), ms(windowPerReq)))
	}
	t.Notes = append(t.Notes,
		"criterion: ≥10× amortized per-request improvement at 32 concurrent clients",
		"clients are closed-loop over real TCP sessions; window occupancy is earned by concurrency, not pre-batched callers",
		fmt.Sprintf("window scheduler: batch=32, deadline=%s; windows of one epoch replay the batch session", e16WindowWait),
	)
	return t, nil
}
