// Command dlrserver runs the multiplexed batch-window decrypt daemon
// (internal/server): many client sessions over one listener, all
// concurrent decrypt requests coalesced into per-tenant batch windows,
// each window drained through a single RunDecBatch round trip against
// the device.
//
//	dlrserver -pk keys/pk.bin -share keys/share1.bin \
//	    -device 127.0.0.1:7700 -listen 127.0.0.1:7800
//
// With -share2 instead of -device the P2 side runs in-process (useful
// for demos and benchmarks; it forfeits the two-device leakage model):
//
//	dlrserver -pk keys/pk.bin -share keys/share1.bin \
//	    -share2 keys/share2.bin -listen 127.0.0.1:7800
//
// -batch and -window tune the scheduler: a window closes as soon as
// -batch requests have coalesced, or -window after its first request —
// whichever comes first (see docs/PERFORMANCE.md, "Batch-window
// sizing"). -serial disables windowing and serves one request per
// round trip, the baseline the E16 experiment measures against.
// -refresh-every rotates every tenant's shares on that cadence through
// the pipelined zero-stall path (next-epoch tables prewarmed while
// serving continues; see docs/PERFORMANCE.md, "Rotation cadence
// sizing").
// Serving metrics are published under expvar key "dlrserver"; set
// -debug to serve /debug/vars on a second listener. SIGINT/SIGTERM
// drain in-flight windows before exit — queued requests are answered,
// not dropped.
package main

import (
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags)
	var (
		pkPath     = flag.String("pk", "pk.bin", "public key file")
		sharePath  = flag.String("share", "share1.bin", "P1 share file")
		share2Path = flag.String("share2", "", "P2 share file: run the device in-process instead of dialing -device")
		deviceAddr = flag.String("device", "", "address of a running dlrdevice (P2)")
		listen     = flag.String("listen", "127.0.0.1:7800", "listen address for client sessions")
		tenantName = flag.String("tenant", "default", "tenant name this share state serves")
		batch      = flag.Int("batch", 32, "requests per batch window")
		window     = flag.Duration("window", 2*time.Millisecond, "max wait for a window to fill (0 = the 2ms default; negative = drain eagerly, no waiting)")
		queue      = flag.Int("queue", 0, "request queue depth before busy rejections (0 = 4×batch)")
		serial     = flag.Bool("serial", false, "serve one request per round trip (no windows) — the E16 baseline")
		refresh    = flag.Duration("refresh-every", 0, "rotate every tenant's shares on this cadence (0 = only on client request)")
		debugAddr  = flag.String("debug", "", "serve /debug/vars (expvar metrics) on this address")
	)
	flag.Parse()

	pk := mustReadPK(*pkPath)
	p1 := mustReadP1(pk, *sharePath)

	s := server.New(server.Config{
		BatchSize:    *batch,
		Window:       *window,
		QueueDepth:   *queue,
		Serial:       *serial,
		RefreshEvery: *refresh,
	})
	if *refresh > 0 {
		log.Printf("rotation scheduler: every %s", *refresh)
	}
	expvar.Publish("dlrserver", s.Metrics().Expvar())

	switch {
	case *share2Path != "":
		p2 := mustReadP2(pk, *share2Path)
		if err := s.RegisterLocal(*tenantName, p1, p2); err != nil {
			log.Fatalf("registering tenant: %v", err)
		}
		log.Printf("tenant %q: P2 running in-process (two-device leakage model forfeited)", *tenantName)
	case *deviceAddr != "":
		conn, err := net.Dial("tcp", *deviceAddr)
		if err != nil {
			log.Fatalf("connecting to device at %s: %v", *deviceAddr, err)
		}
		ch := device.NewConnChannel(conn)
		if err := s.RegisterTenant(*tenantName, p1, ch, ch.Close); err != nil {
			log.Fatalf("registering tenant: %v", err)
		}
		log.Printf("tenant %q: device at %s", *tenantName, *deviceAddr)
	default:
		log.Fatal("need -device addr or -share2 file for the P2 side")
	}

	if *debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("/debug/vars", expvar.Handler())
			log.Printf("metrics on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	mode := "windows"
	if *serial {
		mode = "serial"
	}
	log.Printf("decrypt server on %s (κ=%d, ℓ=%d, mode=%s, batch=%d, window=%s)",
		ln.Addr(), pk.Params.Kappa, pk.Params.Ell, mode, *batch, *window)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	select {
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	case sig := <-sigs:
		log.Printf("%s: draining windows and shutting down", sig)
		// Shutdown drains every queued request through a final window
		// before returning; nothing accepted is dropped.
		s.Shutdown()
		if err := <-serveErr; err != nil {
			log.Printf("serve: %v", err)
		}
	}
	snap := s.Metrics().Snapshot()
	log.Printf("stopped: %d requests in %d windows (mean occupancy %.1f), %d rejected, %d refreshes",
		snap.Requests, snap.Windows, snap.MeanOccupancy, snap.Rejected, snap.Refreshes)
	if n := snap.RotationsPrewarmed; n > 0 {
		log.Printf("rotations: %d prewarmed, mean serving stall %s (last %s)",
			n, snap.RotationStallMean, snap.RotationStallLast)
	}
}

func mustReadPK(path string) *dlr.PublicKey {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("reading public key: %v", err)
	}
	pk, err := dlr.UnmarshalPublicKey(raw)
	if err != nil {
		log.Fatalf("decoding public key: %v", err)
	}
	return pk
}

func mustReadP1(pk *dlr.PublicKey, path string) *dlr.P1 {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("reading P1 share: %v", err)
	}
	p1, err := dlr.UnmarshalP1(pk, raw, nil)
	if err != nil {
		log.Fatalf("decoding P1 share: %v", err)
	}
	return p1
}

func mustReadP2(pk *dlr.PublicKey, path string) *dlr.P2 {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("reading P2 share: %v", err)
	}
	p2, err := dlr.UnmarshalP2(pk, raw, nil)
	if err != nil {
		log.Fatalf("decoding P2 share: %v", err)
	}
	return p2
}
