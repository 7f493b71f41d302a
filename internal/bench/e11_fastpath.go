package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/scalar"
)

// E11 measures the fast-path group arithmetic (windowed-NAF scalar
// multiplication, fixed-base tables, cyclotomic final exponentiation,
// multi-pairing with batched inversions, Straus multi-exponentiation)
// against the retained *Reference implementations. The acceptance
// criteria from the fast-path work: ≥2× on ScalarBaseMult (G1 and G2)
// and ≥1.3× on the κ-pairing HPSKE transport path.

// FastPathMeasurement is one reference-vs-fast timing pair.
type FastPathMeasurement struct {
	// Op names the operation (e.g. "G1.ScalarBaseMult").
	Op string `json:"op"`
	// Iters is how many evaluations each timing averaged over.
	Iters int `json:"iters"`
	// RefNsPerOp and FastNsPerOp are mean wall-clock ns per evaluation.
	RefNsPerOp  float64 `json:"ref_ns_per_op"`
	FastNsPerOp float64 `json:"fast_ns_per_op"`
	// Speedup is RefNsPerOp / FastNsPerOp.
	Speedup float64 `json:"speedup"`
	// RefAllocsPerOp and FastAllocsPerOp are mean heap allocations per
	// evaluation, measured in a separate (untimed) pass. The smoke gate
	// checks FastAllocsPerOp alongside FastNsPerOp so an accidental
	// allocation regression in a hot loop fails CI even when the box is
	// too noisy for the timing check to catch it.
	RefAllocsPerOp  float64 `json:"ref_allocs_per_op"`
	FastAllocsPerOp float64 `json:"fast_allocs_per_op"`
	// RefBytesPerOp and FastBytesPerOp are mean heap bytes per
	// evaluation (TotalAlloc delta), from the same pass as the
	// allocation counts. They catch the regression shape counts miss: a
	// path that allocates the same number of objects but much larger
	// ones (e.g. a scratch slice sized per call instead of pooled).
	RefBytesPerOp  float64 `json:"ref_bytes_per_op"`
	FastBytesPerOp float64 `json:"fast_bytes_per_op"`
}

// memN returns the mean heap allocations and heap bytes per call of f
// over n calls (global Mallocs/TotalAlloc deltas — run on a quiet
// process).
func memN(f func(), n int) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// measureOps times (and counts allocations for) every op pair.
func measureOps(ops []fpOp) []FastPathMeasurement {
	out := make([]FastPathMeasurement, 0, len(ops))
	for _, op := range ops {
		// Drain garbage left by earlier ops so a collection triggered
		// mid-measurement doesn't blur the ref/fast contrast.
		runtime.GC()
		refNs := timeN(op.ref, op.iters)
		fastNs := timeN(op.fast, op.iters)
		n := op.iters
		if n > 20 {
			n = 20 // allocation counts are deterministic; cap the pass
		}
		refAllocs, refBytes := memN(op.ref, n)
		fastAllocs, fastBytes := memN(op.fast, n)
		out = append(out, FastPathMeasurement{
			Op:              op.name,
			Iters:           op.iters,
			RefNsPerOp:      refNs,
			FastNsPerOp:     fastNs,
			Speedup:         refNs / fastNs,
			RefAllocsPerOp:  refAllocs,
			FastAllocsPerOp: fastAllocs,
			RefBytesPerOp:   refBytes,
			FastBytesPerOp:  fastBytes,
		})
	}
	return out
}

type fpOp struct {
	name  string
	iters int
	ref   func()
	fast  func()
}

func timeN(f func(), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func fastPathOps() ([]fpOp, error) {
	ks := make([]*big.Int, 16)
	for i := range ks {
		k, err := scalar.Rand(rand.Reader)
		if err != nil {
			return nil, err
		}
		ks[i] = k
	}
	p1, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		return nil, err
	}
	p2, _, err := bn254.RandG2(rand.Reader)
	if err != nil {
		return nil, err
	}

	const pairN = 4
	g1s := make([]*bn254.G1, pairN)
	g2s := make([]*bn254.G2, pairN)
	for i := range g1s {
		if g1s[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
		if g2s[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
	}

	const msmN = 8
	msmPts := make([]*bn254.G2, msmN)
	for i := range msmPts {
		if msmPts[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
	}

	const kappa = 8
	sch, err := hpske.New[*bn254.G2](group.G2{}, kappa)
	if err != nil {
		return nil, err
	}
	key, err := sch.GenKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	msg, err := sch.G.Rand(rand.Reader)
	if err != nil {
		return nil, err
	}
	ct, err := sch.Encrypt(rand.Reader, key, msg)
	if err != nil {
		return nil, err
	}

	idx := func(i int) *big.Int { return ks[i%len(ks)] }
	return []fpOp{
		{
			name: "G1.ScalarBaseMult", iters: 200,
			ref:  func() { new(bn254.G1).ScalarBaseMultReference(idx(0)) },
			fast: func() { new(bn254.G1).ScalarBaseMult(idx(0)) },
		},
		{
			name: "G2.ScalarBaseMult", iters: 60,
			ref:  func() { new(bn254.G2).ScalarBaseMultReference(idx(1)) },
			fast: func() { new(bn254.G2).ScalarBaseMult(idx(1)) },
		},
		{
			name: "G1.ScalarMult", iters: 60,
			ref:  func() { new(bn254.G1).ScalarMultReference(p1, idx(2)) },
			fast: func() { new(bn254.G1).ScalarMult(p1, idx(2)) },
		},
		{
			name: "G2.ScalarMult", iters: 30,
			ref:  func() { new(bn254.G2).ScalarMultReference(p2, idx(3)) },
			fast: func() { new(bn254.G2).ScalarMult(p2, idx(3)) },
		},
		{
			name: "Pair", iters: 5,
			ref:  func() { bn254.PairReference(p1, p2) },
			fast: func() { bn254.Pair(p1, p2) },
		},
		{
			name: fmt.Sprintf("MultiPair(%d)", pairN), iters: 5,
			ref: func() {
				acc := bn254.GTOne()
				for i := range g1s {
					acc.Mul(acc, bn254.Pair(g1s[i], g2s[i]))
				}
			},
			fast: func() { bn254.MultiPair(g1s, g2s) },
		},
		{
			name: fmt.Sprintf("ProdExp-G2(%d)", msmN), iters: 10,
			ref:  func() { group.ProdExpReference[*bn254.G2](group.G2{}, msmPts, ks[:msmN]) },
			fast: func() { group.ProdExp[*bn254.G2](group.G2{}, msmPts, ks[:msmN]) },
		},
		{
			name: fmt.Sprintf("Transport(κ=%d)", kappa), iters: 5,
			ref:  func() { hpske.TransportReference(nil, p1, ct) },
			fast: func() { hpske.TransportMany(nil, p1, []*hpske.Ciphertext[*bn254.G2]{ct}) },
		},
	}, nil
}

// FastPathMeasurements times every fast-path operation against its
// reference and returns the pairs — the data behind both the E11 table
// and the bench_baseline.json snapshot written by cmd/dlrbench.
func FastPathMeasurements() ([]FastPathMeasurement, error) {
	ops, err := fastPathOps()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		// Warm up once so lazy fixed-base table construction is not
		// charged to the timed iterations.
		op.fast()
	}
	return measureOps(ops), nil
}

// E11FastPath regenerates the fast-path-vs-reference speedup table.
func E11FastPath() (*Table, error) {
	meas, err := FastPathMeasurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E11",
		Title:  "fast-path group arithmetic vs reference implementations",
		Header: []string{"operation", "reference", "fast path", "speedup"},
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
		"criterion: ScalarBaseMult (G1 and G2) ≥ 2× over reference",
		"criterion: κ-pairing transport ≥ 1.3× over per-pair reference",
		"all fast paths are differentially tested against the reference rows above",
	)
	return t, nil
}
