package main

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/dlr"
	"repro/internal/ff"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/scalar"
)

// probeResult is one layer probe: the median wall time of one
// operation in the metric's unit, and the process CPU time one
// operation cost (parallel fan-out makes CPU exceed wall).
type probeResult struct {
	value float64
	cpu   time.Duration
}

// prober times single operations of one layer through its public API,
// on an otherwise idle process, after the traffic phases.
type prober struct {
	tr     *tracer
	root   uint64
	smoke  bool
	result map[string]probeResult
}

var unitScale = map[string]time.Duration{"ns": time.Nanosecond, "us": time.Microsecond, "ms": time.Millisecond}

// measure runs fn reps times after one warm call; each call performs
// inner operations. It records one span per call under the probes
// root.
func (p *prober) measure(name, unit string, reps, inner int, fn func()) {
	if p.smoke {
		reps = 1
	}
	fn()
	per := make([]float64, reps)
	cpu0 := cpuTime()
	for i := range per {
		start := time.Now()
		fn()
		end := time.Now()
		p.tr.record(0, p.root, 0, "probe."+name, start, end)
		per[i] = float64(end.Sub(start)) / float64(inner)
	}
	cpu := (cpuTime() - cpu0) / time.Duration(reps*inner)
	p.result[name] = probeResult{value: median(per) / float64(unitScale[unit]), cpu: cpu}
}

// runProbes measures every layer the workloads cross, bottom up: ff
// field and tower arithmetic, bn254 pairings and tables, hpske
// transport and linear combinations, and whole dlr protocol steps
// against an in-process P2.
func runProbes(tr *tracer, seed uint64, smoke bool) (map[string]probeResult, error) {
	p := &prober{tr: tr, root: tr.id(), smoke: smoke, result: make(map[string]probeResult)}
	start := time.Now()
	defer func() { tr.record(p.root, 0, 0, spanProbes, start, time.Now()) }()
	rng := newSeeded(seed, "probes")
	kappa, ell := prm.Kappa, prm.Ell

	// ff: one Montgomery multiplication and the two Fp12 operations the
	// Miller loop and final exponentiation spend their time in.
	x, err := ff.RandFp(rng)
	if err != nil {
		return nil, err
	}
	y, err := ff.RandFp(rng)
	if err != nil {
		return nil, err
	}
	const fpInner, fp12Inner = 20000, 1000
	p.measure("ff.fp_mul_ns", "ns", 15, fpInner, func() {
		z := *x
		for i := 0; i < fpInner; i++ {
			z.Mul(&z, y)
		}
		*x = z
	})
	a12, err := ff.RandFp12(rng)
	if err != nil {
		return nil, err
	}
	b12, err := ff.RandFp12(rng)
	if err != nil {
		return nil, err
	}
	p.measure("ff.fp12_mul_ns", "ns", 15, fp12Inner, func() {
		for i := 0; i < fp12Inner; i++ {
			a12.Mul(a12, b12)
		}
	})
	g1, _, err := bn254.RandG1(rng)
	if err != nil {
		return nil, err
	}
	g2, _, err := bn254.RandG2(rng)
	if err != nil {
		return nil, err
	}
	// A pairing value lies in the cyclotomic subgroup, where the
	// compressed squaring applies.
	cyc := new(ff.Fp12)
	if _, err := cyc.SetBytes(bn254.Pair(g1, g2).Bytes()); err != nil {
		return nil, err
	}
	p.measure("ff.fp12_cyclo_square_ns", "ns", 15, fp12Inner, func() {
		for i := 0; i < fp12Inner; i++ {
			cyc.CyclotomicSquare(cyc)
		}
	})

	// bn254: a cold pairing, a table replay, the κ+1-table product the
	// batch path evaluates per request, a table build, and the G2
	// decompression every device frame pays per point.
	p.measure("bn254.pair_us", "us", 20, 1, func() { bn254.Pair(g1, g2) })
	tab := bn254.NewPairingTable(g2)
	p.measure("bn254.table_pair_us", "us", 30, 1, func() { tab.Pair(g1) })
	tps := make([]*bn254.G1, kappa+1)
	tabs := make([]*bn254.PairingTable, kappa+1)
	for i := range tabs {
		q, _, err := bn254.RandG2(rng)
		if err != nil {
			return nil, err
		}
		tps[i], tabs[i] = g1, bn254.NewPairingTable(q)
	}
	p.measure("bn254.multipair_mixed_us", "us", 30, 1, func() { bn254.MultiPairMixed(nil, nil, tps, tabs) })
	p.measure("bn254.new_table_us", "us", 20, 1, func() { bn254.NewPairingTable(g2) })
	// keep records the first error a timed call returns; it is checked
	// once the timings of a group are done.
	var perr error
	keep := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	comp := g2.BytesCompressed()
	p.measure("bn254.g2_decompress_us", "us", 50, 1, func() {
		_, err := new(bn254.G2).SetBytesCompressed(comp)
		keep(err)
	})

	// hpske: the ℓ+1 precomputed transports of one RunDec, P2's GT
	// combination of ℓ terms (decrypt), its G2 combination of 2ℓ terms
	// (refresh), and the encoding of a 2ℓ+1 G2 list (the refresh
	// frame).
	ssG2, err := hpske.New[*bn254.G2](group.G2{}, kappa)
	if err != nil {
		return nil, err
	}
	ssGT, err := hpske.New[*bn254.GT](group.GT{}, kappa)
	if err != nil {
		return nil, err
	}
	keyG2, err := ssG2.GenKey(rng)
	if err != nil {
		return nil, err
	}
	keyGT, err := ssGT.GenKey(rng)
	if err != nil {
		return nil, err
	}
	g2cts := make([]*hpske.Ciphertext[*bn254.G2], 2*ell+1)
	for i := range g2cts {
		m, _, err := bn254.RandG2(rng)
		if err != nil {
			return nil, err
		}
		if g2cts[i], err = ssG2.Encrypt(rng, keyG2, m); err != nil {
			return nil, err
		}
	}
	gtcts := make([]*hpske.Ciphertext[*bn254.GT], ell)
	for i := range gtcts {
		m, err := bn254.RandGT(rng)
		if err != nil {
			return nil, err
		}
		if gtcts[i], err = ssGT.Encrypt(rng, keyGT, m); err != nil {
			return nil, err
		}
	}
	ks, err := scalar.RandVector(rng, 2*ell)
	if err != nil {
		return nil, err
	}
	tts := hpske.PrecomputeTransportMany(g2cts[:ell+1])
	p.measure("hpske.transport_many_pre_ms", "ms", 10, 1, func() { hpske.TransportManyPre(nil, g1, tts) })
	p.measure("hpske.lincomb_gt_ms", "ms", 10, 1, func() {
		_, err := ssGT.LinComb(gtcts, ks[:ell])
		keep(err)
	})
	p.measure("hpske.lincomb_g2_ms", "ms", 10, 1, func() {
		_, err := ssG2.LinComb(g2cts[:2*ell], ks)
		keep(err)
	})
	p.measure("hpske.encode_g2_list_us", "us", 20, 1, func() {
		_, err := hpske.EncodeList(ssG2, g2cts)
		keep(err)
	})
	if perr != nil {
		return nil, perr
	}

	if err := probeDLR(p, seed); err != nil {
		return nil, err
	}
	return p.result, nil
}

// probeDLR times whole protocol steps on a fresh key whose P2 serves
// an unobserved in-process channel: the paper's RunDec, a warm batch
// at sizes 1 and 32, and the two halves of a pipelined refresh.
func probeDLR(p *prober, seed uint64) error {
	rng := newSeeded(seed, "probes/dlr")
	pk, p1, p2, err := dlr.Gen(rng, prm)
	if err != nil {
		return err
	}
	a, b := device.NewLocalPair()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p2.ServeLoop(b)
		_ = b.Close()
	}()
	defer func() {
		_ = a.Close()
		<-done
	}()

	const batch = 32
	msgs := make([]*bn254.GT, batch)
	cts := make([]*dlr.Ciphertext, batch)
	for i := range cts {
		if msgs[i], err = dlr.RandMessage(rng, pk); err != nil {
			return err
		}
		if cts[i], err = dlr.Encrypt(rng, pk, msgs[i], nil); err != nil {
			return err
		}
	}
	// verify checks a batch of results against msgs[:len(ms)]; the
	// first failure is kept and returned after the timings.
	var perr error
	verify := func(ms []*bn254.GT, err error) {
		if err != nil {
			if perr == nil {
				perr = err
			}
			return
		}
		for i, m := range ms {
			if !m.Equal(msgs[i]) && perr == nil {
				perr = &fatalError{"wrong plaintext in the dlr probe"}
			}
		}
	}
	p.measure("dlr.rundec_ms", "ms", 10, 1, func() {
		m, err := p1.RunDec(rand.Reader, a, cts[0])
		verify([]*bn254.GT{m}, err)
	})
	p.measure("dlr.rundecbatch_ms_per_req.b1", "ms", 20, 1, func() { verify(p1.RunDecBatch(a, cts[:1])) })
	p.measure("dlr.rundecbatch_ms_per_req.b32", "ms", 5, batch, func() { verify(p1.RunDecBatch(a, cts)) })
	if perr != nil {
		return perr
	}

	// Stage and commit alternate: a staged refresh is valid only until
	// the next commit. The first pair warms both paths.
	reps := 4
	if p.smoke {
		reps = 1
	}
	var stage, commit []float64
	var stageCPU, commitCPU time.Duration
	for i := 0; i <= reps; i++ {
		c0, t0 := cpuTime(), time.Now()
		st, err := p1.StageRefresh(rand.Reader)
		if err != nil {
			return fmt.Errorf("probe stage: %w", err)
		}
		c1, t1 := cpuTime(), time.Now()
		if err := p1.CommitRefresh(rand.Reader, a, st); err != nil {
			st.Abandon()
			return fmt.Errorf("probe commit: %w", err)
		}
		c2, t2 := cpuTime(), time.Now()
		if i == 0 {
			continue
		}
		p.tr.record(0, p.root, 0, "probe.dlr.stage_refresh_ms", t0, t1)
		p.tr.record(0, p.root, 0, "probe.dlr.commit_refresh_ms", t1, t2)
		stage = append(stage, float64(t1.Sub(t0))/float64(time.Millisecond))
		commit = append(commit, float64(t2.Sub(t1))/float64(time.Millisecond))
		stageCPU += c1 - c0
		commitCPU += c2 - c1
	}
	p.result["dlr.stage_refresh_ms"] = probeResult{value: median(stage), cpu: stageCPU / time.Duration(reps)}
	p.result["dlr.commit_refresh_ms"] = probeResult{value: median(commit), cpu: commitCPU / time.Duration(reps)}
	m, err := p1.RunDec(rand.Reader, a, cts[0])
	verify([]*bn254.GT{m}, err)
	return perr
}
