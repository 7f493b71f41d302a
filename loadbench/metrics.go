package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/opcount"
	"repro/internal/server"
)

// metricDef names one reported metric. better is "lower" or "higher";
// BENCHMARK.json carries the same names, units and directions.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the service sees, printed by the
// untraced run for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"decrypt_rps", "1/s", "higher"},
	{"decrypt_p50_ms", "ms", "lower"},
	{"decrypt_tail_ms", "ms", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"cpu_ms_per_decrypt", "ms", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"refresh_p50_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, bottom of the stack last.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"server.window_occupancy", "count", "higher"},
	{"server.busy_per_request", "ratio", "lower"},
	{"server.queue_depth_mean", "count", "lower"},
	{"server.rotation_stall_mean_ms", "ms", "lower"},
	{"server.rotation_rebuild_mean_ms", "ms", "lower"},
	{"wire.bytes_in_per_req", "B", "lower"},
	{"wire.bytes_out_per_req", "B", "lower"},
	{"wire.frames_per_write", "count", "higher"},
	{"device.round_trips_per_req", "count", "lower"},
	{"device.bytes_per_req", "B", "lower"},
	{"device.rtt_p50_ms", "ms", "lower"},
	{"device.p2_busy_ms_per_req", "ms", "lower"},
	{"device.link_ms", "ms", "lower"},
	{"dlr.p1_pairings_per_req", "count", "lower"},
	{"dlr.p1_gt_exp_per_req", "count", "lower"},
	{"dlr.p2_gt_exp_per_req", "count", "lower"},
	{"dlr.p2_g2_exp_per_refresh", "count", "lower"},
	{"dlr.rundec_ms", "ms", "lower"},
	{"dlr.rundecbatch_ms_per_req.b1", "ms", "lower"},
	{"dlr.rundecbatch_ms_per_req.b32", "ms", "lower"},
	{"dlr.stage_refresh_ms", "ms", "lower"},
	{"dlr.commit_refresh_ms", "ms", "lower"},
	{"hpske.transport_many_pre_ms", "ms", "lower"},
	{"hpske.lincomb_gt_ms", "ms", "lower"},
	{"hpske.lincomb_g2_ms", "ms", "lower"},
	{"hpske.encode_g2_list_us", "us", "lower"},
	{"bn254.pair_us", "us", "lower"},
	{"bn254.table_pair_us", "us", "lower"},
	{"bn254.multipair_mixed_us", "us", "lower"},
	{"bn254.new_table_us", "us", "lower"},
	{"bn254.g2_decompress_us", "us", "lower"},
	{"ff.fp_mul_ns", "ns", "lower"},
	{"ff.fp12_mul_ns", "ns", "lower"},
	{"ff.fp12_cyclo_square_ns", "ns", "lower"},
	{"runtime.cpu_util", "ratio", "higher"},
	{"runtime.alloc_kb_per_decrypt", "KB", "lower"},
	{"runtime.gc_per_kdecrypt", "count", "lower"},
	{"ledger.accounted_ratio", "ratio", "higher"},
	{"trace.rps_overhead_pct", "%", "lower"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int64) (*result, error) {
	r := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// setupRuns is how many times the untraced run sets the service up;
// setup_s is their median.
const setupRuns = 9

// runUntraced measures the end-to-end metrics of w and prints the
// report to out.
func runUntraced(w *workload, opt options, out io.Writer) (*result, error) {
	setups := setupRuns
	if opt.smoke {
		setups = 1
	}
	p, err := runPass(w, opt, opt.measured(), setups, nil)
	if err != nil {
		return nil, err
	}
	if p.decrypts() == 0 || len(p.refr.refLat) == 0 {
		return nil, fmt.Errorf("no verified decrypt or refresh in the measured phases (first failure: %v)", p.meas.firstFail)
	}
	vals, tailBeyond := endToEndValues(p)
	fmt.Fprintf(out, "== %s  seed %d  measured %.1fs  untraced\n", w.name, opt.seed, opt.seconds)
	printPhases(out, p)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-20s %12.4f %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(out, "  decrypt_tail_ms is p%g over %d samples (%d beyond it); latency is client-observed%s\n",
		w.tailPct, len(p.meas.lat), tailBeyond, map[bool]string{true: ", from the scheduled send time", false: ""}[w.depth == 0])
	fmt.Fprintf(out, "  setup_s is the median of %d set-ups: %v\n", len(p.setups), p.setups)
	fmt.Fprintf(out, "  cpu_ms_per_decrypt counts the whole process: server, in-process P2 devices and the load generator\n")
	fmt.Fprintf(out, "  refresh_p50_ms over %d refreshes (%s)\n", len(p.refr.refLat), p.refr.name)
	if len(p.intervals) >= minIntervals {
		rps := make([]float64, len(p.intervals))
		for i, x := range p.intervals {
			rps[i] = x.rps
		}
		sort.Float64s(rps)
		fmt.Fprintf(out, "  decrypt_rps and cpu_ms_per_decrypt are medians over %d intervals of %v; interval rps min %.1f max %.1f, whole phase %.1f\n",
			len(p.intervals), intervalLen, rps[0], rps[len(rps)-1], p.decrypts()/p.meas.wall.Seconds())
	}
	if w.refreshEvery > 0 {
		var rotating time.Duration
		for _, d := range p.meas.refLat {
			rotating += d
		}
		fmt.Fprintf(out, "  the refresher rotated for %.0f%% of the measured phase (one rotation per %d verified decrypts)\n",
			100*rotating.Seconds()/p.meas.wall.Seconds(), w.refreshEvery)
	}
	attempted, failed := p.tally()
	return newResult(endToEnd, vals, attempted, failed)
}

// endToEndValues computes the end-to-end metrics of a pass, plus how
// many samples lie beyond the tail percentile.
func endToEndValues(p *pass) (map[string]float64, int) {
	lat := sortedMs(p.meas.lat)
	p50, _ := percentile(lat, 50)
	tail, beyond := percentile(lat, p.w.tailPct)
	ref, _ := percentile(sortedMs(p.refr.refLat), 50)
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	attempted, failed := p.tally()
	return map[string]float64{
		"setup_s":            median(setups),
		"decrypt_rps":        p.rps(),
		"decrypt_p50_ms":     p50,
		"decrypt_tail_ms":    tail,
		"success_ratio":      float64(attempted-failed) / float64(attempted),
		"cpu_ms_per_decrypt": p.cpuMsPerDecrypt(),
		"retained_heap_mb":   float64(p.heapLive) / (1 << 20),
		"refresh_p50_ms":     ref,
	}, beyond
}

func printPhases(out io.Writer, p *pass) {
	fmt.Fprintf(out, "  %-14s %-26s %s\n", "phase", "decrypts sent/ok/failed", "refreshes sent/ok/failed")
	phases := []*phase{p.warm, p.meas}
	if p.refr != p.meas {
		phases = append(phases, p.refr)
	}
	for _, ph := range phases {
		fmt.Fprintf(out, "  %-14s %-26s %s\n", ph.name, ph.dec.String(), ph.ref.String())
	}
	if err := p.meas.firstFail; err != nil {
		fmt.Fprintf(out, "  first failure in the measured phase: %v\n", err)
	}
}

// runTraced drives w twice, untraced and then traced, each for half
// the measured time, so a traced run lasts about as long as an
// untraced one. It reports the per-layer metrics, the tracing overhead
// between the two passes, the layer probes and the op-count ledger,
// and writes the spans to opt.spansDir.
func runTraced(w *workload, opt options, out io.Writer) (*result, error) {
	half := opt.measured() / 2
	plain, err := runPass(w, opt, half, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := runPass(w, opt, half, 1, tr)
	if err != nil {
		return nil, err
	}
	if p.decrypts() == 0 || plain.decrypts() == 0 {
		return nil, fmt.Errorf("no verified decrypt in the measured phase (first failure: %v)", p.meas.firstFail)
	}
	probes, err := runProbes(tr, opt.seed, opt.smoke)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	vals := layerValues(p, plain, probes)
	ledger := ledgerTerms(p, probes)
	var sum float64
	for _, t := range ledger {
		sum += t.ms
	}
	vals["ledger.accounted_ratio"] = sum / plain.cpuMsPerDecrypt()

	fmt.Fprintf(out, "== %s  seed %d  measured 2 × %.1fs  traced\n", w.name, opt.seed, half.Seconds())
	printPhases(out, p)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(out, "  tracing overhead: decrypt_rps %.2f untraced vs %.2f traced\n", plain.rps(), p.rps())
	fmt.Fprintf(out, "  ledger (CPU ms per decrypt; measured %.3f):\n", plain.cpuMsPerDecrypt())
	for _, t := range ledger {
		fmt.Fprintf(out, "    %-44s %9.4f\n", t.what, t.ms)
	}
	fmt.Fprintf(out, "  span self times over the measured phase (per verified decrypt):\n")
	for _, s := range selfTimes(p.spans) {
		fmt.Fprintf(out, "    %-22s n=%-6d total %9.4f ms  self %9.4f ms\n", s.Name, s.Count,
			ms(s.Total)/p.decrypts(), ms(s.Self)/p.decrypts())
	}
	all := tr.snapshot()
	path := filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, opt.seed))
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", len(all), path)

	a1, f1 := plain.tally()
	a2, f2 := p.tally()
	return newResult(perLayer, vals, a1+a2, f1+f2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rotationMeans returns the mean stall and rebuild of the rotations
// between two snapshots, in milliseconds.
func rotationMeans(a, b server.Snapshot) (stall, rebuild float64) {
	na := float64(a.RotationsPrewarmed + a.RotationsCold)
	nb := float64(b.RotationsPrewarmed + b.RotationsCold)
	if nb == na {
		return 0, 0
	}
	d := nb - na
	stall = (ms(b.RotationStallMean)*nb - ms(a.RotationStallMean)*na) / d
	rebuild = (ms(b.RotationRebuildMean)*nb - ms(a.RotationRebuildMean)*na) / d
	return stall, rebuild
}

// layerValues computes the per-layer metrics. Server, wire, device and
// op-count figures come from the traced pass p; runtime figures from
// the untraced pass plain, which tracing does not disturb.
func layerValues(p, plain *pass, probes map[string]probeResult) map[string]float64 {
	dec := p.decrypts()
	ops := dec + float64(p.meas.ref.ok.Load())
	lag, _ := percentile(sortedMs(p.meas.lag), 99)
	d0, d1 := p.srv0, p.srv1
	windows := float64(d1.Windows - d0.Windows)
	occ := 0.0
	if windows > 0 {
		occ = (d1.MeanOccupancy*float64(d1.Windows) - d0.MeanOccupancy*float64(d0.Windows)) / windows
	}
	busy := 0.0
	if reqs := float64(d1.Requests - d0.Requests); reqs > 0 {
		busy = float64(d1.Rejected-d0.Rejected) / reqs
	}
	stall, rebuild := rotationMeans(p.rot0, p.rot1)
	framesPerWrite := 0.0
	if p.writes > 0 {
		framesPerWrite = float64(d1.FramesOut-d0.FramesOut) / float64(p.writes)
	}

	// A device round trip's figures are taken over the measured phase's
	// round trips: RunDec on paper-open, refresh commits on
	// rotate-mixed. window-saturate's measured phase makes none, so
	// there they fall back to the refresh check's commits.
	devSpans := p.spans
	if !hasSpan(devSpans, spanP1RoundTrip) {
		devSpans = p.allSpans
	}
	var rtts []time.Duration
	var p2Busy, linkSelf time.Duration
	for _, s := range selfTimes(devSpans) {
		switch s.Name {
		case spanP2Handle:
			p2Busy = s.Total
		case spanP1RoundTrip:
			linkSelf = s.Self
		}
	}
	for _, s := range devSpans {
		if s.Name == spanP1RoundTrip {
			rtts = append(rtts, time.Duration(s.End-s.Start))
		}
	}
	rtt, _ := percentile(sortedMs(rtts), 50)
	var link, busy2 float64
	if n := float64(len(rtts)); n > 0 {
		link, busy2 = ms(linkSelf)/n, ms(p2Busy)/n
	}
	g2PerRefresh := 0.0
	if n := p.refr.ref.ok.Load(); n > 0 {
		g2PerRefresh = float64(p.p2RefG2) / float64(n)
	}

	plainDec := plain.decrypts()
	vals := map[string]float64{
		"loadgen.lag_p99_ms":              lag,
		"server.window_occupancy":         occ,
		"server.busy_per_request":         busy,
		"server.queue_depth_mean":         p.queueMean,
		"server.rotation_stall_mean_ms":   stall,
		"server.rotation_rebuild_mean_ms": rebuild,
		"wire.bytes_in_per_req":           float64(d1.BytesIn-d0.BytesIn) / ops,
		"wire.bytes_out_per_req":          float64(d1.BytesOut-d0.BytesOut) / ops,
		"wire.frames_per_write":           framesPerWrite,
		"device.round_trips_per_req":      float64(p.devRT) / dec,
		"device.bytes_per_req":            float64(p.devBytes) / dec,
		"device.rtt_p50_ms":               rtt,
		"device.p2_busy_ms_per_req":       busy2,
		"device.link_ms":                  link,
		"dlr.p1_pairings_per_req":         float64(p.p1[opcount.Pairing]) / dec,
		"dlr.p1_gt_exp_per_req":           float64(p.p1[opcount.GTExp]) / dec,
		"dlr.p2_gt_exp_per_req":           float64(p.p2[opcount.GTExp]) / dec,
		"dlr.p2_g2_exp_per_refresh":       g2PerRefresh,
		"runtime.cpu_util":                plain.cpu.Seconds() / (plain.meas.wall.Seconds() * float64(runtime.NumCPU())),
		"runtime.alloc_kb_per_decrypt":    float64(plain.allocBytes) / 1024 / plainDec,
		"runtime.gc_per_kdecrypt":         float64(plain.numGC) * 1000 / plainDec,
		"trace.rps_overhead_pct":          (plain.rps() - p.rps()) / plain.rps() * 100,
	}
	for name, r := range probes {
		vals[name] = r.value
	}
	return vals
}

func hasSpan(spans []span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// ledgerTerm is one line of the op-count ledger: an op count per
// decrypt times the CPU cost the probes measured for one such op.
type ledgerTerm struct {
	what string
	ms   float64
}

// ledgerTerms prices the traced pass's exact op counts with the probes'
// per-op CPU costs. A pairing is priced as a table replay with its own
// final exponentiation on the per-request path (RunDec), and as one
// share of the κ+1-table product on the batch path. GT and G2
// exponentiations are priced as one term of P2's linear combinations.
// Every rotation builds (ℓ+2)(κ+1) pairing tables: ℓ(κ+1) staged, κ+1
// for the new Φ transport and κ+1 for the batch session.
func ledgerTerms(p *pass, probes map[string]probeResult) []ledgerTerm {
	dec := p.decrypts()
	k1, ell := float64(prm.Kappa+1), float64(prm.Ell)
	cpuMs := func(name string) float64 { return ms(probes[name].cpu) }
	pairUnit, pairHow := cpuMs("bn254.table_pair_us"), "table pairing"
	if !p.w.cfg.Serial {
		pairUnit, pairHow = cpuMs("bn254.multipair_mixed_us")/k1, "share of a (κ+1)-table product"
	}
	gtUnit := cpuMs("hpske.lincomb_gt_ms") / (ell * k1)
	g2Unit := cpuMs("hpske.lincomb_g2_ms") / (2 * ell * k1)
	per := func(op opcount.Op) float64 { return float64(p.p1[op]+p.p2[op]) / dec }
	refreshes := float64(p.meas.ref.ok.Load()) / dec
	return []ledgerTerm{
		{fmt.Sprintf("P1 pairings %.2f × %s", per(opcount.Pairing), pairHow), per(opcount.Pairing) * pairUnit},
		{fmt.Sprintf("GT exponentiations %.2f × LinComb term", per(opcount.GTExp)), per(opcount.GTExp) * gtUnit},
		{fmt.Sprintf("G2 exponentiations %.2f × LinComb term", per(opcount.G2Exp)), per(opcount.G2Exp) * g2Unit},
		{fmt.Sprintf("table builds %.3f × new table", refreshes*(ell+2)*k1), refreshes * (ell + 2) * k1 * cpuMs("bn254.new_table_us")},
	}
}
