package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"repro/internal/bn254"
	"repro/internal/ff"
	"repro/internal/scalar"
)

// E15 measures the parallel tier: chunk-parallel primitives
// (window-parallel Pippenger, chunked MultiPair/PairBatch, segmented
// batch inversion) against the serial paths they gate behind.
// Acceptance criterion: on a multi-core host the parallel primitives
// reach ≥ 1.5× at the sizes below while every small-input alloc gate
// stays on the serial path.
//
// The serial reference pins GOMAXPROCS(1) — the same dispatchers then
// route through the serial code — and the parallel side runs at
// e15Procs. On a single-CPU host the "parallel" timings measure
// dispatch overhead, not speedup; the table notes record the core
// count so the numbers read honestly.

// e15Procs is the GOMAXPROCS the parallel side runs at: every
// available core, but at least 2 so the parallel branches are
// exercised (and race-checked) even on a one-core host.
func e15Procs() int {
	if n := runtime.NumCPU(); n > 2 {
		return n
	}
	return 2
}

// withProcs runs f at GOMAXPROCS(n) and restores the old value.
func withProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

// e15Sizes: chosen to clear the parallel gates (pippengerParMinBases
// after the 2-way GLV / 4-way GLS splits, multiPairParMinChunk,
// 2·batchInvParMinChunk) with headroom, while staying minutes-cheap.
const (
	e15MultiExpG1 = 768 // → 1536 post-GLV bases
	e15MultiExpG2 = 256 // → 1024 post-GLS bases
	e15Pairs      = 16  // → 4 lockstep chunks of 4
	e15InvBatch   = 4096
)

func e15Ops() ([]fpOp, error) {
	ksG1 := make([]*big.Int, e15MultiExpG1)
	g1s := make([]*bn254.G1, e15MultiExpG1)
	for i := range g1s {
		k, err := scalar.Rand(rand.Reader)
		if err != nil {
			return nil, err
		}
		ksG1[i] = k
		if g1s[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
	}
	ksG2 := ksG1[:e15MultiExpG2]
	g2s := make([]*bn254.G2, e15MultiExpG2)
	for i := range g2s {
		var err error
		if g2s[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
	}
	pairP := g1s[:e15Pairs]
	pairQ := g2s[:e15Pairs]

	xs := make([]ff.Fp2, e15InvBatch)
	for i := range xs {
		x, err := ff.RandFp2(rand.Reader)
		if err != nil {
			return nil, err
		}
		xs[i] = *x
	}
	inv := make([]ff.Fp2, e15InvBatch)
	prefix := make([]ff.Fp2, e15InvBatch)

	procs := e15Procs()
	par := func(f func()) func() { return func() { withProcs(procs, f) } }
	ser := func(f func()) func() { return func() { withProcs(1, f) } }

	return []fpOp{
		{
			name: fmt.Sprintf("MultiExp(%d)-G1 (serial→window-parallel)", e15MultiExpG1), iters: 3,
			ref:  ser(func() { bn254.G1MultiExpPippenger(g1s, ksG1) }),
			fast: par(func() { bn254.G1MultiExpPippenger(g1s, ksG1) }),
		},
		{
			name: fmt.Sprintf("MultiExp(%d)-G2 (serial→window-parallel)", e15MultiExpG2), iters: 2,
			ref:  ser(func() { bn254.G2MultiExpPippenger(g2s, ksG2) }),
			fast: par(func() { bn254.G2MultiExpPippenger(g2s, ksG2) }),
		},
		{
			name: fmt.Sprintf("MultiPair(%d) (serial→chunked)", e15Pairs), iters: 3,
			ref:  ser(func() { bn254.MultiPair(pairP, pairQ) }),
			fast: par(func() { bn254.MultiPair(pairP, pairQ) }),
		},
		{
			name: fmt.Sprintf("PairBatch(%d) (serial→chunked)", e15Pairs), iters: 3,
			ref:  ser(func() { bn254.PairBatch(pairP, pairQ) }),
			fast: par(func() { bn254.PairBatch(pairP, pairQ) }),
		},
		{
			name: fmt.Sprintf("BatchInverseFp2(%d) (serial→segmented)", e15InvBatch), iters: 50,
			ref:  ser(func() { ff.BatchInverseFp2Par(inv, xs, prefix) }),
			fast: par(func() { ff.BatchInverseFp2Par(inv, xs, prefix) }),
		},
	}, nil
}

// E15Measurements times the parallel-tier operations against their
// serial twins — the data behind the E15 table and the parallel rows
// of bench_baseline.json.
func E15Measurements() ([]FastPathMeasurement, error) {
	ops, err := e15Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		op.ref()
		op.fast()
	}
	return measureOps(ops), nil
}

// E15Parallel regenerates the parallel-tier table: primitive
// serial-vs-parallel timings.
func E15Parallel() (*Table, error) {
	meas, err := E15Measurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E15",
		Title:  "parallel tier: chunked primitives",
		Header: []string{"operation", "serial", "parallel", "speedup"},
	}
	for _, m := range meas {
		t.Rows = append(t.Rows, []string{
			m.Op,
			ms(time.Duration(m.RefNsPerOp)),
			ms(time.Duration(m.FastNsPerOp)),
			fmt.Sprintf("%.2fx", m.Speedup),
		})
	}

	t.Notes = append(t.Notes,
		"criterion: on ≥ 2 cores the parallel primitives reach ≥ 1.5× at the sizes above; small inputs stay on the serial zero-allocation paths (alloc gates in TestMultiExpPippengerAlloc et al.)",
		fmt.Sprintf("measured at GOMAXPROCS=%d on %d CPU(s); with a single CPU the parallel timings measure dispatch overhead, not speedup — the code paths still run and are race-checked", e15Procs(), runtime.NumCPU()),
		"parallel paths are differentially tested against their serial twins (parallel_test.go, batchpar_test.go) under GOMAXPROCS(4)",
	)
	return t, nil
}
