package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/ff"
	"repro/internal/group"
	"repro/internal/params"
	"repro/internal/scalar"
)

// E13 measures the throughput tier: lazy-reduction tower arithmetic
// against the fully reducing twins, Pippenger bucket multi-
// exponentiation against the Straus tier at the E13 reference size of
// 64 terms, and the batched decryption pipeline (RunDecBatch) against
// the per-request protocol. Acceptance criteria: MultiExp(64) ≥ 1.5×
// over Straus and the tower-mul-bound operations ≥ 1.2× over their
// reducing twins.

// e13Params are the scheme parameters the decryption-throughput
// measurements run at (n = 40, λ = 128 → κ = 2, ℓ = 14) — small enough
// for the harness, protocol-shaped enough that the (ℓ+1)(κ+1)-pairing
// per-request cost is visible.
func e13Params() params.Params { return params.MustNew(40, 128) }

// e13BatchSize is the batch the amortized decryption measurement and
// the pipeline curve use.
const e13BatchSize = 32

func e13Ops() ([]fpOp, error) {
	const n = 64
	ks := make([]*big.Int, n)
	g1s := make([]*bn254.G1, n)
	g2s := make([]*bn254.G2, n)
	gts := make([]*bn254.GT, n)
	gtGen := bn254.GTGenerator()
	for i := 0; i < n; i++ {
		k, err := scalar.Rand(rand.Reader)
		if err != nil {
			return nil, err
		}
		ks[i] = k
		if g1s[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
		if g2s[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
		gts[i] = new(bn254.GT).Exp(gtGen, k)
	}

	x2, err := ff.RandFp2(rand.Reader)
	if err != nil {
		return nil, err
	}
	y2, err := ff.RandFp2(rand.Reader)
	if err != nil {
		return nil, err
	}
	x6, err := ff.RandFp6(rand.Reader)
	if err != nil {
		return nil, err
	}
	y6, err := ff.RandFp6(rand.Reader)
	if err != nil {
		return nil, err
	}
	var z2 ff.Fp2
	var z6 ff.Fp6

	return []fpOp{
		{
			name: fmt.Sprintf("MultiExp(%d)-G1 (Straus→Pippenger)", n), iters: 5,
			ref:  func() { bn254.G1MultiScalarMult(g1s, ks) },
			fast: func() { bn254.G1MultiExpPippenger(g1s, ks) },
		},
		{
			name: fmt.Sprintf("MultiExp(%d)-G2 (Straus→Pippenger)", n), iters: 3,
			ref:  func() { bn254.G2MultiScalarMult(g2s, ks) },
			fast: func() { bn254.G2MultiExpPippenger(g2s, ks) },
		},
		{
			name: fmt.Sprintf("ProdExp-GT(%d) (naive→bucket)", n), iters: 3,
			ref:  func() { group.ProdExpReference[*bn254.GT](group.GT{}, gts, ks) },
			fast: func() { group.ProdExp[*bn254.GT](group.GT{}, gts, ks) },
		},
		{
			name: "Fp2.Mul (reducing→lazy)", iters: 200000,
			ref:  func() { ff.Fp2MulGeneric(&z2, x2, y2) },
			fast: func() { z2.Mul(x2, y2) },
		},
		{
			name: "Fp6.Mul (reducing→lazy)", iters: 30000,
			ref:  func() { ff.Fp6MulGeneric(&z6, x6, y6) },
			fast: func() { z6.Mul(x6, y6) },
		},
	}, nil
}

// decBatchMeasurement times one full per-request decryption protocol
// run against the amortized per-request cost of a RunDecBatch of
// e13BatchSize, on a fresh DLR instance.
func decBatchMeasurement() (FastPathMeasurement, error) {
	var zero FastPathMeasurement
	pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
	if err != nil {
		return zero, err
	}
	cs := make([]*dlr.Ciphertext, e13BatchSize)
	for i := range cs {
		m, err := dlr.RandMessage(rand.Reader, pk)
		if err != nil {
			return zero, err
		}
		if cs[i], err = dlr.Encrypt(rand.Reader, pk, m, nil); err != nil {
			return zero, err
		}
	}
	refFn := func() {
		if _, _, err := dlr.Decrypt(rand.Reader, p1, p2, cs[0]); err != nil {
			panic(err)
		}
	}
	fastFn := func() {
		if _, _, err := dlr.DecryptBatch(p1, p2, cs); err != nil {
			panic(err)
		}
	}
	refFn() // warm the transport tables
	const refIters, fastIters = 3, 2
	refNs := timeN(refFn, refIters)
	fastNs := timeN(fastFn, fastIters) / e13BatchSize
	refAllocs, refBytes := memN(refFn, refIters)
	fastAllocs, fastBytes := memN(fastFn, fastIters)
	return FastPathMeasurement{
		Op:              fmt.Sprintf("DLR.Dec (per-request→batch%d, amortized)", e13BatchSize),
		Iters:           refIters,
		RefNsPerOp:      refNs,
		FastNsPerOp:     fastNs,
		Speedup:         refNs / fastNs,
		RefAllocsPerOp:  refAllocs,
		FastAllocsPerOp: fastAllocs / e13BatchSize,
		RefBytesPerOp:   refBytes,
		FastBytesPerOp:  fastBytes / e13BatchSize,
	}, nil
}

// E13Measurements times the throughput-tier operations against their
// previous-tier twins — the data behind the E13 table and the
// throughput rows of bench_baseline.json.
func E13Measurements() ([]FastPathMeasurement, error) {
	ops, err := e13Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		op.ref()
		op.fast()
	}
	out := measureOps(ops)
	dec, err := decBatchMeasurement()
	if err != nil {
		return nil, err
	}
	return append(out, dec), nil
}

// PipelinePoint is one point of the batched-decryption worker curve,
// including the GC-pressure metrics behind E14: what the sustained
// pipeline allocates per request and what the collector charged for it
// over the run.
type PipelinePoint struct {
	Workers   int
	Requests  int
	Batch     int
	ReqPerSec float64
	P50, P99  time.Duration
	// AllocsPerReq and BytesPerReq are the serving-phase heap traffic
	// (Mallocs/TotalAlloc deltas) divided by Requests; setup (key
	// generation, encryption) is excluded.
	AllocsPerReq float64
	BytesPerReq  float64
	// GCCycles and GCPause are the collections the serving phase
	// triggered and their cumulative stop-the-world pause.
	GCCycles int
	GCPause  time.Duration
}

// PipelineConfig shapes one DecPipelineCfg run.
type PipelineConfig struct {
	// Workers is the per-shard worker-pool size: each worker owns its
	// own P1↔P2 channel pair per tenant and pulls batches from the
	// shared queue.
	Workers int
	// Requests and Batch: Requests ciphertexts total, served Batch at a
	// time.
	Requests int
	Batch    int
	// Tenants is how many independent DLR instances (key shares) the
	// request stream round-robins over; 0 means 1.
	Tenants int
}

// DecPipeline drives the batched decryption pipeline at the given
// concurrency for a single tenant — the E13/E14 shape. See
// DecPipelineCfg for the multi-tenant variant.
func DecPipeline(workers, totalReqs, batch int) (*PipelinePoint, error) {
	return DecPipelineCfg(PipelineConfig{Workers: workers, Requests: totalReqs, Batch: batch})
}

// DecPipelineCfg drives the batched decryption pipeline: cfg.Workers
// goroutines pull batches of cfg.Batch ciphertexts from a shared queue
// until cfg.Requests requests have been served, round-robining over
// cfg.Tenants independent DLR instances. Every decrypted message is
// verified against the plaintext. Reported latency is per batch,
// attributed to each request in it (queue wait excluded — the driver is
// closed-loop, so queueing is an artifact of the offered load, not of
// the protocol).
func DecPipelineCfg(cfg PipelineConfig) (*PipelinePoint, error) {
	workers, totalReqs, batch := cfg.Workers, cfg.Requests, cfg.Batch
	tenants := cfg.Tenants
	if tenants < 1 {
		tenants = 1
	}
	if workers < 1 || batch < 1 || totalReqs < batch*tenants {
		return nil, fmt.Errorf("bench: bad pipeline shape workers=%d reqs=%d batch=%d tenants=%d",
			workers, totalReqs, batch, tenants)
	}
	type tenantState struct {
		p1   *dlr.P1
		p2   *dlr.P2
		msgs []*bn254.GT
		cs   []*dlr.Ciphertext
	}
	sts := make([]*tenantState, tenants)
	perTenant := totalReqs / tenants
	for ti := range sts {
		pk, p1, p2, err := dlr.Gen(rand.Reader, e13Params())
		if err != nil {
			return nil, err
		}
		n := perTenant
		if ti < totalReqs%tenants {
			n++
		}
		st := &tenantState{p1: p1, p2: p2,
			msgs: make([]*bn254.GT, n), cs: make([]*dlr.Ciphertext, n)}
		for i := range st.cs {
			if st.msgs[i], err = dlr.RandMessage(rand.Reader, pk); err != nil {
				return nil, err
			}
			if st.cs[i], err = dlr.Encrypt(rand.Reader, pk, st.msgs[i], nil); err != nil {
				return nil, err
			}
		}
		sts[ti] = st
	}

	// Interleave the tenants' batches (every consecutive batch a
	// different tenant) rather than running tenant-sorted.
	type job struct{ tenant, lo, hi int }
	var jobList []job
	for lo := 0; ; lo += batch {
		appended := false
		for ti, st := range sts {
			if lo >= len(st.cs) {
				continue
			}
			hi := lo + batch
			if hi > len(st.cs) {
				hi = len(st.cs)
			}
			jobList = append(jobList, job{ti, lo, hi})
			appended = true
		}
		if !appended {
			break
		}
	}
	jobs := make(chan job, len(jobList))
	for _, j := range jobList {
		jobs <- j
	}
	close(jobs)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Snapshot heap/GC state right before serving starts so the
	// reported pressure is the protocol's, not the setup's.
	runtime.GC()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		// One channel pair per (worker, tenant): P2's ServeLoop exits
		// when its worker closes the P1 end.
		chs := make([]device.Channel, tenants)
		for ti, st := range sts {
			chP1, chP2 := device.NewLocalPair()
			go st.p2.ServeLoop(chP2)
			chs[ti] = chP1
		}
		wg.Add(1)
		go func(chs []device.Channel) {
			defer wg.Done()
			defer func() {
				for _, ch := range chs {
					ch.Close()
				}
			}()
			for j := range jobs {
				st := sts[j.tenant]
				t0 := time.Now()
				out, err := st.p1.RunDecBatch(chs[j.tenant], st.cs[j.lo:j.hi])
				lat := time.Since(t0)
				if err != nil {
					fail(err)
					return
				}
				for i, m := range out {
					if !m.Equal(st.msgs[j.lo+i]) {
						fail(fmt.Errorf("bench: pipeline decrypted request %d/%d wrong", j.tenant, j.lo+i))
						return
					}
				}
				mu.Lock()
				for range out {
					latencies = append(latencies, lat)
				}
				mu.Unlock()
			}
		}(chs)
	}
	wg.Wait()
	wall := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(latencies, func(i, k int) bool { return latencies[i] < latencies[k] })
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	pt := &PipelinePoint{
		Workers:      workers,
		Requests:     totalReqs,
		Batch:        batch,
		ReqPerSec:    float64(totalReqs) / wall.Seconds(),
		P50:          pct(0.50),
		P99:          pct(0.99),
		AllocsPerReq: float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalReqs),
		BytesPerReq:  float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(totalReqs),
		GCCycles:     int(memAfter.NumGC - memBefore.NumGC),
		GCPause:      time.Duration(memAfter.PauseTotalNs - memBefore.PauseTotalNs),
	}
	return pt, nil
}

// E13Throughput regenerates the throughput-tier speedup table and the
// worker curve of the batched decryption pipeline.
func E13Throughput() (*Table, error) {
	meas, err := E13Measurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E13",
		Title:  "throughput tier: lazy tower, Pippenger multi-exp, batched decryption",
		Header: []string{"operation", "before", "after", "speedup"},
	}
	for _, m := range meas {
		t.Rows = append(t.Rows, []string{
			m.Op,
			ms(time.Duration(m.RefNsPerOp)),
			ms(time.Duration(m.FastNsPerOp)),
			fmt.Sprintf("%.2fx", m.Speedup),
		})
	}
	for _, w := range []int{1, 2, 4} {
		pt, err := DecPipeline(w, 48, 12)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"pipeline: %d worker(s) → %.1f req/s (batch=%d, p50 %s, p99 %s)",
			pt.Workers, pt.ReqPerSec, pt.Batch,
			ms(pt.P50), ms(pt.P99)))
	}
	t.Notes = append(t.Notes,
		"criterion: 64-term multi-exponentiation ≥ 1.5× over the Straus tier",
		"criterion: tower-multiplication-bound operations ≥ 1.2× over the reducing twins",
		fmt.Sprintf("worker curve measured at GOMAXPROCS=%d on %d CPU(s); on a single-core host the curve is flat and the batch amortization row above is the throughput win", runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"lazy tower and Pippenger paths are differentially tested and fuzzed against their twins (lazy_test.go, pippenger_test.go, Fuzz*)",
	)
	return t, nil
}
