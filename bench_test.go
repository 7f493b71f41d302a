// Package repro_test holds the repository-level benchmark harness: one
// benchmark per experiment table of DESIGN.md §2 (regenerating the
// paper's quantitative claims; see EXPERIMENTS.md for recorded outputs)
// plus fine-grained benchmarks of every protocol operation.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/bench"
	"repro/internal/bn254"
	"repro/internal/cca2"
	"repro/internal/dibe"
	"repro/internal/dlr"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/leakage"
	"repro/internal/params"
	"repro/internal/scalar"
	"repro/internal/storage"
)

// benchParams are the default benchmark parameters: statistical
// security 2⁻⁴⁰, λ = 256 leakage bits per period.
func benchParams(b *testing.B) params.Params {
	b.Helper()
	return params.MustNew(40, 256)
}

func runTable(b *testing.B, f func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// BenchmarkE1_EfficiencyComparison regenerates the §1.2.1 footnote-3
// encryption-cost table.
func BenchmarkE1_EfficiencyComparison(b *testing.B) { runTable(b, bench.E1Efficiency) }

// BenchmarkE2_LeakageRates regenerates the Theorem 4.1 leakage-rate
// table.
func BenchmarkE2_LeakageRates(b *testing.B) {
	runTable(b, func() (*bench.Table, error) { return bench.E2LeakageRates(), nil })
}

// BenchmarkE3_Sizes regenerates the key/communication-size table.
func BenchmarkE3_Sizes(b *testing.B) { runTable(b, bench.E3Sizes) }

// BenchmarkE4_Latency regenerates the protocol-latency table.
func BenchmarkE4_Latency(b *testing.B) { runTable(b, bench.E4Latency) }

// BenchmarkE5_AttackSim regenerates the refresh-vs-no-refresh attack
// table (one game per configuration).
func BenchmarkE5_AttackSim(b *testing.B) {
	runTable(b, func() (*bench.Table, error) { return bench.E5Attack(1) })
}

// BenchmarkE6_DeviceAsymmetry regenerates the P2-simplicity op-count
// table.
func BenchmarkE6_DeviceAsymmetry(b *testing.B) { runTable(b, bench.E6DeviceAsymmetry) }

// BenchmarkE7_DIBE regenerates the DLRIBE operation table.
func BenchmarkE7_DIBE(b *testing.B) { runTable(b, bench.E7DIBE) }

// BenchmarkE8_CCA2Overhead regenerates the CHK-transform overhead table.
func BenchmarkE8_CCA2Overhead(b *testing.B) { runTable(b, bench.E8CCA2) }

// BenchmarkE9_Storage regenerates the secure-storage table.
func BenchmarkE9_Storage(b *testing.B) { runTable(b, bench.E9Storage) }

// BenchmarkE10_Ablations regenerates the design-choice ablation table.
func BenchmarkE10_Ablations(b *testing.B) { runTable(b, bench.E10Ablations) }

// BenchmarkE11_FastPath regenerates the fast-path-vs-reference speedup
// table (windowed scalar mult, multi-pairing, Straus multi-exp).
func BenchmarkE11_FastPath(b *testing.B) { runTable(b, bench.E11FastPath) }

// --- Fine-grained operation benchmarks -------------------------------

func BenchmarkDLR_Gen(b *testing.B) {
	prm := benchParams(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := dlr.Gen(rand.Reader, prm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDLR_Encrypt(b *testing.B) {
	pk, _, _, err := dlr.Gen(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	m, err := dlr.RandMessage(rand.Reader, pk)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dlr.Encrypt(rand.Reader, pk, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDLR_DecryptProtocol(b *testing.B) {
	pk, p1, p2, err := dlr.Gen(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	m, _ := dlr.RandMessage(rand.Reader, pk)
	ct, _ := dlr.Encrypt(rand.Reader, pk, m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := dlr.Decrypt(rand.Reader, p1, p2, ct)
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(m) {
			b.Fatal("wrong message")
		}
	}
}

func BenchmarkDLR_RefreshProtocol(b *testing.B) {
	_, p1, p2, err := dlr.Gen(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dlr.Refresh(rand.Reader, p1, p2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDLR_BeginPeriod(b *testing.B) {
	_, p1, _, err := dlr.Gen(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p1.BeginPeriod(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDIBE_Extract(b *testing.B) {
	_, m1, m2, err := dibe.Gen(rand.Reader, benchParams(b), 16, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dibe.Extract(rand.Reader, m1, m2, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDIBE_DecryptProtocol(b *testing.B) {
	pk, m1, m2, err := dibe.Gen(rand.Reader, benchParams(b), 16, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	k1, k2, err := dibe.Extract(rand.Reader, m1, m2, "bench")
	if err != nil {
		b.Fatal(err)
	}
	m, _ := dibe.RandMessage(rand.Reader, pk)
	ct, _ := dibe.Encrypt(rand.Reader, pk, "bench", m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dibe.Decrypt(rand.Reader, k1, k2, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCA2_Encrypt(b *testing.B) {
	pk, _, _, err := cca2.Gen(rand.Reader, benchParams(b), 16, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := cca2.RandMessage(rand.Reader, pk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cca2.Encrypt(rand.Reader, pk, m, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCA2_DecryptProtocol(b *testing.B) {
	pk, m1, m2, err := cca2.Gen(rand.Reader, benchParams(b), 16, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, _ := cca2.RandMessage(rand.Reader, pk)
	ct, _ := cca2.Encrypt(rand.Reader, pk, m, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cca2.Decrypt(rand.Reader, pk, m1, m2, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorage_Get(b *testing.B) {
	st, err := storage.New(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(rand.Reader, "k", []byte("value")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(rand.Reader, "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorage_RefreshPeriod(b *testing.B) {
	st, err := storage.New(rand.Reader, benchParams(b))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Put(rand.Reader, string(rune('a'+i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RefreshPeriod(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fast-path vs reference micro-benchmarks -------------------------
//
// Each pair times a fast-path entry point against the retained naive
// *Reference implementation it is differentially tested against.

func benchScalar(b *testing.B) *big.Int {
	b.Helper()
	k, err := scalar.Rand(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkG1_ScalarBaseMult(b *testing.B) {
	k := benchScalar(b)
	new(bn254.G1).ScalarBaseMult(k) // build the fixed-base table outside the timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G1).ScalarBaseMult(k)
	}
}

func BenchmarkG1_ScalarBaseMultReference(b *testing.B) {
	k := benchScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G1).ScalarBaseMultReference(k)
	}
}

func BenchmarkG2_ScalarBaseMult(b *testing.B) {
	k := benchScalar(b)
	new(bn254.G2).ScalarBaseMult(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G2).ScalarBaseMult(k)
	}
}

func BenchmarkG2_ScalarBaseMultReference(b *testing.B) {
	k := benchScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(bn254.G2).ScalarBaseMultReference(k)
	}
}

func BenchmarkPair(b *testing.B) {
	p, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := bn254.RandG2(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.Pair(p, q)
	}
}

func BenchmarkPairReference(b *testing.B) {
	p, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	q, _, err := bn254.RandG2(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn254.PairReference(p, q)
	}
}

func benchTransportInputs(b *testing.B) (*bn254.G1, *hpske.Ciphertext[*bn254.G2]) {
	b.Helper()
	s, err := hpske.New[*bn254.G2](group.G2{}, 8)
	if err != nil {
		b.Fatal(err)
	}
	key, err := s.GenKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	m, err := s.G.Rand(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := s.Encrypt(rand.Reader, key, m)
	if err != nil {
		b.Fatal(err)
	}
	a, _, err := bn254.RandG1(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return a, ct
}

func BenchmarkHPSKE_Transport(b *testing.B) {
	a, ct := benchTransportInputs(b)
	cts := []*hpske.Ciphertext[*bn254.G2]{ct}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hpske.TransportMany(nil, a, cts)
	}
}

func BenchmarkHPSKE_TransportReference(b *testing.B) {
	a, ct := benchTransportInputs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hpske.TransportReference(nil, a, ct)
	}
}

func BenchmarkLeakage_GamePeriod(b *testing.B) {
	// One full CPA-CML game period with the polite λ-bit leaker.
	prm := benchParams(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := leakage.NewRandomGuessAdversary(nil)
		cfg := leakage.Config{
			Params:            prm,
			Mode:              params.ModeOptimalRate,
			RefreshEnabled:    true,
			SkipBackgroundDec: true,
		}
		if _, err := leakage.RunCPAGame(rand.Reader, cfg, adv); err != nil {
			b.Fatal(err)
		}
	}
}
