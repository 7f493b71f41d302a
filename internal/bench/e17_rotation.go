package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/server"
)

// E17 measures zero-stall rotation: what an epoch boundary costs with
// the paper's reference refresh (RunRef + BeginPeriod serialized
// against serving, every table rebuilt by the first post-rotation
// batch — the "cold" column) against the
// pipelined path (next-epoch state staged and tables prewarmed
// concurrently with serving, only the commit round trip on the
// serving loop). Two layers are measured:
//
//   - dlr layer: the first post-rotation batch's latency against the
//     steady-state warm batch, and the rotation's serving stall (full
//     cold rotation vs commit-only).
//   - server layer: sustained closed-loop load over TCP while the
//     RefreshEvery scheduler rotates (always pipelined) on a cadence —
//     the p99 across epoch boundaries and the per-rotation stall
//     gauges.
//
// Acceptance criterion: the prewarmed first-post-rotation batch lands
// within 25% of steady state, where the cold path spikes by a
// multiple; the pipelined serving stall is the commit round trip only.

// e17Batch is the batch size of the dlr-layer rotation measurements.
const e17Batch = 8

// e17Rounds is how many rotations each dlr-layer side averages over.
const e17Rounds = 4

// e17Instance builds one DLR instance with an encrypted test batch.
func e17Instance() (*dlr.P1, *dlr.P2, []*dlr.Ciphertext, []*bn254.GT, error) {
	pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	cs := make([]*dlr.Ciphertext, e17Batch)
	ms := make([]*bn254.GT, e17Batch)
	for i := range cs {
		if ms[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
			return nil, nil, nil, nil, err
		}
		if cs[i], err = dlr.Encrypt(rand.Reader, pk, ms[i], nil); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return p1, p2, cs, ms, nil
}

// RotationPoint is the dlr-layer E17 measurement: per-request latency
// of the steady-state batch and of the first batch after each rotation
// path, plus the serving stall each rotation path imposes.
type RotationPoint struct {
	// SteadyNs is the warm (in-session) batch, per request.
	SteadyNs float64
	// ColdFirstNs / WarmFirstNs are the first post-rotation batch per
	// request: after a cold rotation (tables rebuilt) and after a
	// pipelined rotation (tables prewarmed at commit).
	ColdFirstNs float64
	WarmFirstNs float64
	// ColdStallNs is the serving stall of a cold rotation (RunRef +
	// BeginPeriod); CommitStallNs the pipelined commit's (the only part
	// on the serving path); StageNs the staging work the pipeline moved
	// off it.
	ColdStallNs   float64
	CommitStallNs float64
	StageNs       float64
}

// e17Decrypt runs one batch and verifies the plaintexts.
func e17Decrypt(p1 *dlr.P1, p2 *dlr.P2, cs []*dlr.Ciphertext, ms []*bn254.GT) error {
	got, _, err := dlr.DecryptBatch(p1, p2, cs)
	if err != nil {
		return err
	}
	for i := range ms {
		if !got[i].Equal(ms[i]) {
			return fmt.Errorf("bench: E17 batch decrypted wrong at %d", i)
		}
	}
	return nil
}

// E17RotationPoint measures the dlr-layer rotation costs, each side
// averaged over e17Rounds rotations.
func E17RotationPoint() (*RotationPoint, error) {
	p1, p2, cs, ms, err := e17Instance()
	if err != nil {
		return nil, err
	}
	if err := e17Decrypt(p1, p2, cs, ms); err != nil { // install the session
		return nil, err
	}
	pt := &RotationPoint{}
	pt.SteadyNs = timeN(func() {
		if err := e17Decrypt(p1, p2, cs, ms); err != nil {
			panic(err)
		}
	}, e17Rounds) / e17Batch

	// Cold rotations: the serialized path, then the rebuild-paying
	// first batch.
	var coldStall, coldFirst time.Duration
	for r := 0; r < e17Rounds; r++ {
		start := time.Now()
		if _, err := dlr.Refresh(rand.Reader, p1, p2); err != nil {
			return nil, err
		}
		if err := p1.BeginPeriod(rand.Reader); err != nil {
			return nil, err
		}
		coldStall += time.Since(start)
		start = time.Now()
		if err := e17Decrypt(p1, p2, cs, ms); err != nil {
			return nil, err
		}
		coldFirst += time.Since(start)
	}
	pt.ColdStallNs = float64(coldStall.Nanoseconds()) / e17Rounds
	pt.ColdFirstNs = float64(coldFirst.Nanoseconds()) / (e17Rounds * e17Batch)

	// Pipelined rotations: staging off the serving path, commit on it,
	// then the prewarmed first batch.
	var stage, commit, warmFirst time.Duration
	for r := 0; r < e17Rounds; r++ {
		start := time.Now()
		st, err := p1.StageRefresh(rand.Reader)
		if err != nil {
			return nil, err
		}
		stage += time.Since(start)
		start = time.Now()
		_, _, err = device.Run(
			func(ch device.Channel) error { return p1.CommitRefresh(rand.Reader, ch, st) },
			p2.Serve,
		)
		if err != nil {
			st.Abandon()
			return nil, err
		}
		commit += time.Since(start)
		start = time.Now()
		if err := e17Decrypt(p1, p2, cs, ms); err != nil {
			return nil, err
		}
		warmFirst += time.Since(start)
	}
	pt.StageNs = float64(stage.Nanoseconds()) / e17Rounds
	pt.CommitStallNs = float64(commit.Nanoseconds()) / e17Rounds
	pt.WarmFirstNs = float64(warmFirst.Nanoseconds()) / (e17Rounds * e17Batch)
	return pt, nil
}

// RotationServerPoint is one server-level rotation-under-load run.
type RotationServerPoint struct {
	Cadence   time.Duration
	Requests  int
	ReqPerSec float64
	P50, P99  time.Duration
	Rotations uint64
	StallMean time.Duration
}

// E17ServerRun drives sustained closed-loop load against a
// batch-window server whose RefreshEvery scheduler rotates the tenant
// on the given cadence, and reports the latency the clients saw across
// the epoch boundaries together with the rotation gauges. A zero
// cadence disables rotation — the steady-state reference.
func E17ServerRun(cadence time.Duration, clients, perClient int) (*RotationServerPoint, error) {
	pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{
		BatchSize:    8,
		Window:       2 * time.Millisecond,
		RefreshEvery: cadence,
	})
	if err := s.RegisterLocal("e17", p1, p2); err != nil {
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
				got, err := conns[cl].Decrypt("e17", cts[i])
				if err == nil && !got.Equal(msgs[i]) {
					err = fmt.Errorf("bench: E17 client %d request %d decrypted wrong across rotation", cl, k)
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

	snap := s.Metrics().Snapshot()
	return &RotationServerPoint{
		Cadence:   cadence,
		Requests:  total,
		ReqPerSec: float64(total) / wall.Seconds(),
		P50:       snap.P50,
		P99:       snap.P99,
		Rotations: snap.RotationsPrewarmed,
		StallMean: snap.RotationStallMean,
	}, nil
}

// E17Measurements produces the baseline-JSON rows for the rotation
// pipeline: the first-post-rotation batch (cold rebuild vs prewarmed)
// and the serving stall (full cold rotation vs commit-only).
func E17Measurements() ([]FastPathMeasurement, error) {
	pt, err := E17RotationPoint()
	if err != nil {
		return nil, err
	}
	return []FastPathMeasurement{
		{
			Op:          fmt.Sprintf("DLR.DecBatch(%d) first post-rotation (cold→prewarmed, amortized)", e17Batch),
			Iters:       e17Rounds,
			RefNsPerOp:  pt.ColdFirstNs,
			FastNsPerOp: pt.WarmFirstNs,
			Speedup:     pt.ColdFirstNs / pt.WarmFirstNs,
		},
		{
			Op:          "DLR rotation serving stall (cold→pipelined commit)",
			Iters:       e17Rounds,
			RefNsPerOp:  pt.ColdStallNs,
			FastNsPerOp: pt.CommitStallNs,
			Speedup:     pt.ColdStallNs / pt.CommitStallNs,
		},
	}, nil
}

// E17Rotation regenerates the E17 table: the dlr-layer rotation costs
// and the server-level rotation-under-load cadence sweep.
func E17Rotation() (*Table, error) {
	pt, err := E17RotationPoint()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E17",
		Title:  "zero-stall rotation: pipelined refresh with next-epoch prewarming",
		Header: []string{"measurement", "cold", "pipelined", "improvement"},
	}
	steady := time.Duration(pt.SteadyNs)
	coldFirst := time.Duration(pt.ColdFirstNs)
	warmFirst := time.Duration(pt.WarmFirstNs)
	t.Rows = append(t.Rows,
		[]string{
			fmt.Sprintf("first post-rotation batch(%d), per request", e17Batch),
			fmt.Sprintf("%s (%.1fx steady)", ms(coldFirst), pt.ColdFirstNs/pt.SteadyNs),
			fmt.Sprintf("%s (%.2fx steady)", ms(warmFirst), pt.WarmFirstNs/pt.SteadyNs),
			fmt.Sprintf("%.1fx", pt.ColdFirstNs/pt.WarmFirstNs),
		},
		[]string{
			"rotation serving stall",
			ms(time.Duration(pt.ColdStallNs)),
			ms(time.Duration(pt.CommitStallNs)),
			fmt.Sprintf("%.1fx", pt.ColdStallNs/pt.CommitStallNs),
		},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("steady-state warm batch: %s per request; prewarm staging (off the serving path): %s per rotation",
			ms(steady), ms(time.Duration(pt.StageNs))),
		"criterion: the prewarmed first-post-rotation batch lands within 25% of steady state; the cold path pays the full table rebuild",
	)

	// Server-level: rotation under sustained load, steady reference
	// then two cadences.
	const clients, perClient = 8, 8
	ref, err := E17ServerRun(0, clients, perClient)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"server steady (no rotation): %.1f req/s, p50 %s, p99 %s (%d clients)",
		ref.ReqPerSec, ms(ref.P50), ms(ref.P99), clients))
	for _, cadence := range []time.Duration{100 * time.Millisecond, 30 * time.Millisecond} {
		pt, err := E17ServerRun(cadence, clients, perClient)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"server rotate-every %s: %.1f req/s, p99 %s, %d rotation(s), mean stall %s",
			cadence, pt.ReqPerSec, ms(pt.P99), pt.Rotations, ms(pt.StallMean)))
	}
	return t, nil
}
