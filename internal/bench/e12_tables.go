package bench

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/bn254"
	"repro/internal/group"
	"repro/internal/hpske"
)

// E12 measures the precomputed-line pairing table against a cold
// Miller loop for a fixed G2 argument, alone and inside the hpske
// transport. The acceptance criterion: fixed-G2 table pairing ≥1.5×
// over a cold Pair. The GLV/GLS scalar multiplications are timed
// against the reference ladder by E11's G1/G2.ScalarMult rows.

func e12Ops() ([]fpOp, error) {
	p1, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		return nil, err
	}
	q2, _, err := bn254.RandG2(rand.Reader)
	if err != nil {
		return nil, err
	}
	// The table is built once outside the timed closures: it models the
	// fixed-key hot path, where construction cost amortizes across every
	// later pairing against the same G2 point.
	tab := bn254.NewPairingTable(q2)

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
	tt := hpske.PrecomputeTransport(ct)

	return []fpOp{
		{
			name: "Pair fixed-G2 (cold→table)", iters: 20,
			ref:  func() { bn254.Pair(p1, q2) },
			fast: func() { tab.Pair(p1) },
		},
		{
			name: fmt.Sprintf("Transport(κ=%d) (cold→table)", kappa), iters: 10,
			ref:  func() { hpske.Transport(nil, p1, ct) },
			fast: func() { hpske.TransportPre(nil, p1, tt) },
		},
	}, nil
}

// E12Measurements times the pairing-table fast paths against cold
// Miller loops — the data behind the E12 table and its rows of
// bench_baseline.json.
func E12Measurements() ([]FastPathMeasurement, error) {
	ops, err := e12Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		// Warm up both sides once so one-time lazy setup is not charged
		// to the timings.
		op.ref()
		op.fast()
	}
	return measureOps(ops), nil
}

// E12PairingTables regenerates the table-vs-cold-pairing speedup table.
func E12PairingTables() (*Table, error) {
	meas, err := E12Measurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E12",
		Title:  "precomputed-line pairings",
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
	t.Notes = append(t.Notes,
		"criterion: fixed-G2 pairing ≥ 1.5× over a cold Pair (precomputed line table)",
		"the 'before' column is the cold Miller loop, itself already fast-path code",
		"the GLV/GLS ScalarMult rows are E11's; the wNAF ablation that stood here is recorded history (EXPERIMENTS.md, E12)",
		"all fast paths are differentially tested against reference twins (endo_test.go, pairingtable_test.go)",
	)
	return t, nil
}
