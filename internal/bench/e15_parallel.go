package bench

import (
	"crypto/rand"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bn254"
)

// E15 measures the parallel tier that the protocol reaches: MultiPair
// and PairBatch split their lockstep Miller loops into contiguous
// chunks of at least four pairs and run the chunks on separate cores.
// Acceptance criterion: on an otherwise idle multi-core host PairBatch
// and MultiPair at 16 pairs reach ≥ 1.5× in the median and win most
// pairs.
//
// The serial reference pins GOMAXPROCS(1) — the same entry points then
// run one lockstep loop — and the parallel side runs at e15Procs. Each
// row is timed as e15Rounds serial/parallel pairs, with the side that
// goes first alternating so drift on a shared host favours neither;
// the row reports the medians and how many pairs the parallel side
// won. On a single-CPU host the "parallel" timings measure dispatch
// overhead, not speedup; the table notes record the core count so the
// numbers read honestly.

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

const (
	// e15Baseline is the pair count of the bench_baseline.json rows:
	// four lockstep chunks of four.
	e15Baseline = 16
	// e15Rounds is how many alternating serial/parallel pairs each row
	// is timed over.
	e15Rounds = 15
)

// e15Sizes are the pair counts the E15 table reports: 8 is exactly
// two chunks of four, the smallest input that splits at all.
var e15Sizes = []int{8, e15Baseline}

// e15Row is one paired serial-vs-parallel timing.
type e15Row struct {
	FastPathMeasurement
	// wins counts the pairs in which the parallel side was faster;
	// lo and hi are the smallest and largest per-pair speedups.
	wins   int
	lo, hi float64
}

// e15Ops returns the MultiPair and PairBatch rows at n pairs.
func e15Ops(n int) ([]fpOp, error) {
	ps := make([]*bn254.G1, n)
	qs := make([]*bn254.G2, n)
	for i := range ps {
		var err error
		if ps[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
		if qs[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
	}
	procs := e15Procs()
	par := func(f func()) func() { return func() { withProcs(procs, f) } }
	ser := func(f func()) func() { return func() { withProcs(1, f) } }
	return []fpOp{
		{
			name: fmt.Sprintf("MultiPair(%d) (serial→chunked)", n), iters: e15Rounds,
			ref:  ser(func() { bn254.MultiPair(ps, qs) }),
			fast: par(func() { bn254.MultiPair(ps, qs) }),
		},
		{
			name: fmt.Sprintf("PairBatch(%d) (serial→chunked)", n), iters: e15Rounds,
			ref:  ser(func() { bn254.PairBatch(ps, qs) }),
			fast: par(func() { bn254.PairBatch(ps, qs) }),
		},
	}, nil
}

// measurePaired times op as op.iters alternating serial/parallel
// pairs and reports the median of each side, then counts allocations
// as measureOps does.
func measurePaired(op fpOp) e15Row {
	op.ref()
	op.fast()
	runtime.GC()
	ser := make([]float64, op.iters)
	par := make([]float64, op.iters)
	row := e15Row{lo: -1}
	for i := range ser {
		if i%2 == 0 {
			ser[i] = timeN(op.ref, 1)
			par[i] = timeN(op.fast, 1)
		} else {
			par[i] = timeN(op.fast, 1)
			ser[i] = timeN(op.ref, 1)
		}
		if par[i] < ser[i] {
			row.wins++
		}
		r := ser[i] / par[i]
		if row.lo < 0 || r < row.lo {
			row.lo = r
		}
		if r > row.hi {
			row.hi = r
		}
	}
	n := op.iters
	if n > 20 {
		n = 20
	}
	refAllocs, refBytes := memN(op.ref, n)
	fastAllocs, fastBytes := memN(op.fast, n)
	refNs, fastNs := median(ser), median(par)
	row.FastPathMeasurement = FastPathMeasurement{
		Op:              op.name,
		Iters:           op.iters,
		RefNsPerOp:      refNs,
		FastNsPerOp:     fastNs,
		Speedup:         refNs / fastNs,
		RefAllocsPerOp:  refAllocs,
		FastAllocsPerOp: fastAllocs,
		RefBytesPerOp:   refBytes,
		FastBytesPerOp:  fastBytes,
	}
	return row
}

// median returns the median of xs, reordering xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// e15Rows times every row at n pairs.
func e15Rows(n int) ([]e15Row, error) {
	ops, err := e15Ops(n)
	if err != nil {
		return nil, err
	}
	rows := make([]e15Row, len(ops))
	for i, op := range ops {
		rows[i] = measurePaired(op)
	}
	return rows, nil
}

// E15Measurements times the chunked multi-pairings at e15Baseline
// pairs against their serial twins — the parallel rows of
// bench_baseline.json.
func E15Measurements() ([]FastPathMeasurement, error) {
	rows, err := e15Rows(e15Baseline)
	if err != nil {
		return nil, err
	}
	out := make([]FastPathMeasurement, len(rows))
	for i, r := range rows {
		out[i] = r.FastPathMeasurement
	}
	return out, nil
}

// E15Parallel regenerates the parallel-tier table: paired
// serial-vs-parallel timings of the chunked multi-pairings.
func E15Parallel() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "parallel tier: chunked multi-pairings",
		Header: []string{"operation", "serial p50", "parallel p50", "speedup", "per-pair range", "parallel wins"},
	}
	for _, n := range e15Sizes {
		rows, err := e15Rows(n)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				r.Op,
				ms(time.Duration(r.RefNsPerOp)),
				ms(time.Duration(r.FastNsPerOp)),
				fmt.Sprintf("%.2fx", r.Speedup),
				fmt.Sprintf("%.2f–%.2fx", r.lo, r.hi),
				fmt.Sprintf("%d/%d", r.wins, r.Iters),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("criterion: on ≥ 2 otherwise idle cores MultiPair and PairBatch at %d pairs reach ≥ 1.5× in the median and win most pairs; below two chunks of four the serial lockstep loop runs unchanged", e15Baseline),
		fmt.Sprintf("each row: %d serial/parallel pairs, first side alternating; measured at GOMAXPROCS=%d on %d CPU(s) — with a single CPU the parallel timings measure dispatch overhead, not speedup", e15Rounds, e15Procs(), runtime.NumCPU()),
		"the chunked paths are differentially tested against per-pair Pair calls (parallel_test.go) under GOMAXPROCS(4)",
	)
	return t, nil
}
