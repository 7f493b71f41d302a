package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/scalar"
)

// E14 measures the memory tier: steady-state heap traffic of the hot
// operations after the limb/arena work (fixed-width exponent loops,
// fixed-point GLV/GLS decomposition, pooled Pippenger arenas, in-place
// pairing accumulators), and the GC pressure of the sustained batched
// decryption pipeline. Acceptance criteria: Pair ≤ 200 allocs/op, the
// κ=8 table-path transport ≤ 150 allocs/op, endomorphism scalar
// multiplication allocation-free, and the 64-term Pippenger multi-exp
// at or below the Straus tier's count.

// e14Ops pairs each hot operation with the allocation-heavy tier it
// replaced. Iteration counts stay tiny: allocation counts are
// deterministic, and timeN's numbers are not the point here.
func e14Ops() ([]fpOp, error) {
	p, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		return nil, err
	}
	q, _, err := bn254.RandG2(rand.Reader)
	if err != nil {
		return nil, err
	}
	k, err := scalar.Rand(rand.Reader)
	if err != nil {
		return nil, err
	}
	tb := bn254.NewPairingTable(q)

	const msmN = 64
	g1s := make([]*bn254.G1, msmN)
	ks := make([]*big.Int, msmN)
	for i := range g1s {
		if g1s[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
		if ks[i], err = scalar.Rand(rand.Reader); err != nil {
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
	cts := []*hpske.Ciphertext[*bn254.G2]{ct}
	tts := hpske.PrecomputeTransportMany(cts)

	var sink1 bn254.G1
	var sink2 bn254.G2
	var sinkT bn254.GT
	g := bn254.GTGenerator()
	return []fpOp{
		{
			name: "G1.ScalarMult (ladder→limb GLV)", iters: 10,
			ref:  func() { sink1.ScalarMultReference(p, k) },
			fast: func() { sink1.ScalarMult(p, k) },
		},
		{
			name: "G2.ScalarMult (ladder→limb GLS)", iters: 6,
			ref:  func() { sink2.ScalarMultReference(q, k) },
			fast: func() { sink2.ScalarMult(q, k) },
		},
		{
			name: "GT.Exp (bigint→limb cyclotomic)", iters: 10,
			ref:  func() { sinkT.ExpReference(g, k) },
			fast: func() { sinkT.Exp(g, k) },
		},
		{
			name: "Pair (cold→table replay)", iters: 4,
			ref:  func() { bn254.Pair(p, q) },
			fast: func() { tb.Pair(p) },
		},
		{
			name: fmt.Sprintf("Transport(κ=%d) (cold→table)", kappa), iters: 4,
			ref:  func() { hpske.TransportMany(nil, p, cts) },
			fast: func() { hpske.TransportManyPre(nil, p, tts) },
		},
		{
			name: fmt.Sprintf("MultiExp(%d)-G1 (Straus→arena Pippenger)", msmN), iters: 3,
			ref:  func() { bn254.G1MultiScalarMult(g1s, ks) },
			fast: func() { bn254.G1MultiExpPippenger(g1s, ks) },
		},
	}, nil
}

// E14Measurements runs the memory-tier operation pairs. The warm-up
// pass also fills the Pippenger arena pool and the transport tables so
// the fast columns show steady-state traffic, which is what the
// allocation regression tests pin.
func E14Measurements() ([]FastPathMeasurement, error) {
	ops, err := e14Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		op.ref()
		op.fast()
	}
	return measureOps(ops), nil
}

// kb renders a byte count compactly.
func kb(b float64) string {
	switch {
	case b < 1024:
		return fmt.Sprintf("%.0fB", b)
	case b < 1024*1024:
		return fmt.Sprintf("%.1fKB", b/1024)
	default:
		return fmt.Sprintf("%.2fMB", b/(1024*1024))
	}
}

// E14Memory regenerates the memory-tier table: allocs/op and bytes/op
// for each hot operation against its allocation-heavy twin, plus the
// GC profile of the sustained decryption pipeline.
func E14Memory() (*Table, error) {
	meas, err := E14Measurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E14",
		Title:  "memory tier: steady-state heap traffic and GC pressure",
		Header: []string{"operation", "allocs/op", "B/op", "allocs/op (was)", "B/op (was)"},
	}
	for _, m := range meas {
		t.Rows = append(t.Rows, []string{
			m.Op,
			fmt.Sprintf("%.0f", m.FastAllocsPerOp),
			kb(m.FastBytesPerOp),
			fmt.Sprintf("%.0f", m.RefAllocsPerOp),
			kb(m.RefBytesPerOp),
		})
	}
	pt, err := DecPipeline(1, 48, 12)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("pipeline (1 worker, %d reqs, batch=%d): %.0f allocs/req, %s/req, %d GC cycle(s), %s total pause",
			pt.Requests, pt.Batch, pt.AllocsPerReq, kb(pt.BytesPerReq), pt.GCCycles, pt.GCPause.Round(time.Microsecond)),
		"criterion: Pair ≤ 200 allocs/op; table-path Transport(κ=8) ≤ 150 allocs/op",
		"criterion: GLV/GLS scalar multiplication and GT.Exp allocation-free in steady state",
		"criterion: 64-term Pippenger multi-exp allocates no more than the Straus tier",
		"budgets are enforced in-tree by testing.AllocsPerRun tests (internal/ff, internal/scalar, internal/bn254, internal/hpske)",
	)
	return t, nil
}
