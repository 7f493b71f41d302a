// Command dlrbench runs the experiment suite E1–E18 (DESIGN.md §2) and
// prints the paper-claim-vs-measured tables recorded in EXPERIMENTS.md:
//
//	dlrbench                            # everything
//	dlrbench -e E5                      # one experiment
//	dlrbench -games 5                   # more attack games for E5
//	dlrbench -baseline bench_baseline.json  # snapshot fast-path timings
//	dlrbench -smoke bench_baseline.json     # fail if a hot op regressed >25%
//	dlrbench -pipeline -workers 1,2,4 -reqs 128 -batch 16
//	                                    # batched-decryption worker curve
//	dlrbench -pipeline -workers 2 -tenants 3
//	                                    # multi-tenant curve: the request
//	                                    # stream round-robins over 3
//	                                    # independent DLR instances
//	dlrbench -server -clients 1,8,32 -perclient 2
//	                                    # continuous-batching server curve:
//	                                    # N concurrent single-request TCP
//	                                    # clients, serial vs batch windows
//	dlrbench -rotate -cadences 100ms,30ms -clients 8 -perclient 4
//	                                    # rotation-under-load sweep: the
//	                                    # RefreshEvery scheduler rotates on
//	                                    # each cadence while closed-loop
//	                                    # clients decrypt
//
// -cpuprofile and -memprofile write pprof profiles of whichever mode
// runs, for digging into the hot loops the E13/E15 numbers summarize.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// smokeTolerance is how much slower than the committed baseline a hot
// operation may run before -smoke fails. Generous because baselines are
// recorded on a different (usually quieter) machine than CI.
const smokeTolerance = 1.25

// smokeAllocSlack is the absolute allocs/op headroom on top of
// smokeTolerance before the allocation side of the gate fails. Counts
// are nearly deterministic, but parallel fan-out (par.ForEach) adds a
// few scheduling-dependent allocations per call.
const smokeAllocSlack = 16.0

// smokeAttempts bounds how many times -smoke re-measures before
// declaring a regression. Scheduler noise only ever inflates a timing,
// so the per-op minimum over a few passes is the honest number; a real
// regression stays slow on every pass.
const smokeAttempts = 3

func main() {
	log.SetFlags(0)
	var (
		exp        = flag.String("e", "", "run a single experiment (E1..E18); empty = all")
		games      = flag.Int("games", 1, "games per configuration in E5")
		baseline   = flag.String("baseline", "", "write a JSON snapshot of the fast-path timings to this path (skips the table run)")
		smoke      = flag.String("smoke", "", "compare current fast-path timings against this baseline JSON and exit non-zero on a >25% regression")
		pipeline   = flag.Bool("pipeline", false, "drive the batched decryption pipeline and report req/s with p50/p99 latency")
		workers    = flag.String("workers", "1,2,4", "comma-separated worker counts for -pipeline")
		reqs       = flag.Int("reqs", 128, "total decryption requests per -pipeline point")
		batchSize  = flag.Int("batch", 16, "requests per RunDecBatch call in -pipeline")
		tenants    = flag.Int("tenants", 1, "independent DLR instances the -pipeline request stream round-robins over")
		srv        = flag.Bool("server", false, "drive the batch-window decrypt server with concurrent single-request TCP clients, serial vs windows")
		rotate     = flag.Bool("rotate", false, "drive the server under sustained load while the rotation scheduler refreshes on each -cadences entry")
		cadences   = flag.String("cadences", "100ms,30ms", "comma-separated rotation cadences for -rotate")
		clients    = flag.String("clients", "1,8,32", "comma-separated concurrent-client counts for -server")
		perClient  = flag.Int("perclient", 2, "requests each -server client issues (closed-loop)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	if err := run(*exp, *games, *baseline, *smoke, *pipeline, *workers, *reqs, *batchSize, *tenants, *srv, *rotate, *cadences, *clients, *perClient); err != nil {
		// log.Fatal would skip the profile-writing defers above.
		log.Print(err)
		os.Exit(1)
	}
}

func run(exp string, games int, baseline, smoke string, pipeline bool, workers string, reqs, batchSize, tenants int, srv, rotate bool, cadences, clients string, perClient int) error {
	switch {
	case baseline != "":
		return writeBaseline(baseline)
	case smoke != "":
		return runSmoke(smoke)
	case pipeline:
		return runPipeline(workers, reqs, batchSize, tenants)
	case srv:
		return runServer(clients, perClient)
	case rotate:
		return runRotate(cadences, clients, perClient)
	}

	start := time.Now()
	tables, err := bench.Run(exp, games)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
	fmt.Printf("total: %d experiment(s) in %s\n", len(tables), time.Since(start).Round(time.Millisecond))
	return nil
}

// runPipeline sweeps the batched decryption pipeline across the
// requested worker counts and prints the req/s-vs-workers curve.
func runPipeline(workers string, reqs, batchSize, tenants int) error {
	fmt.Printf("batched decryption pipeline: %d requests per point, batch=%d, tenants=%d, GOMAXPROCS=%d\n",
		reqs, batchSize, tenants, runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s  %10s  %12s  %12s  %12s  %10s  %6s  %10s\n",
		"workers", "req/s", "p50", "p99", "allocs/req", "KB/req", "GC", "pause")
	var base float64
	for _, field := range strings.Split(workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("pipeline: bad -workers entry %q: %w", field, err)
		}
		pt, err := bench.DecPipelineCfg(bench.PipelineConfig{
			Workers: w, Requests: reqs, Batch: batchSize, Tenants: tenants,
		})
		if err != nil {
			return err
		}
		scale := ""
		if base == 0 {
			base = pt.ReqPerSec
		} else {
			scale = fmt.Sprintf("  (%.2fx vs 1 worker)", pt.ReqPerSec/base)
		}
		fmt.Printf("%-8d  %10.1f  %12s  %12s  %12.0f  %10.1f  %6d  %10s%s\n",
			pt.Workers, pt.ReqPerSec, pt.P50.Round(time.Microsecond), pt.P99.Round(time.Microsecond),
			pt.AllocsPerReq, pt.BytesPerReq/1024, pt.GCCycles, pt.GCPause.Round(time.Microsecond), scale)
	}
	return nil
}

// runServer sweeps the batch-window decrypt server across the requested
// concurrent-client counts, printing the serial one-request-per-round-
// trip baseline next to the windowed path at each point.
func runServer(clients string, perClient int) error {
	fmt.Printf("batch-window decrypt server: %d request(s) per client, closed-loop over TCP\n", perClient)
	fmt.Printf("%-8s  %-7s  %10s  %14s  %12s  %12s  %12s\n",
		"clients", "mode", "req/s", "per-request", "mean window", "p50", "p99")
	for _, field := range strings.Split(clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("server: bad -clients entry %q: %w", field, err)
		}
		serial, err := bench.E16SerialBaseline(n, 1)
		if err != nil {
			return err
		}
		window, err := bench.E16WindowRun(n, perClient)
		if err != nil {
			return err
		}
		for _, pt := range []*bench.ServerPoint{serial, window} {
			occ := "—"
			if pt.Mode == "window" {
				occ = fmt.Sprintf("%.1f", pt.MeanOccupancy)
			}
			fmt.Printf("%-8d  %-7s  %10.1f  %14s  %12s  %12s  %12s\n",
				pt.Clients, pt.Mode, pt.ReqPerSec, pt.PerReq.Round(time.Microsecond),
				occ, pt.P50.Round(time.Microsecond), pt.P99.Round(time.Microsecond))
		}
		fmt.Printf("%-8s  amortized improvement: %.1fx\n", "",
			float64(serial.PerReq)/float64(window.PerReq))
	}
	return nil
}

// runRotate sweeps rotation-under-load: for each cadence the server's
// RefreshEvery scheduler rotates the tenant while closed-loop clients
// decrypt. The steady (no-rotation) reference prints first.
func runRotate(cadences, clients string, perClient int) error {
	n := 8
	if fields := strings.Split(clients, ","); len(fields) > 0 {
		v, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return fmt.Errorf("rotate: bad -clients entry %q: %w", fields[0], err)
		}
		n = v
	}
	sweep := []time.Duration{0}
	for _, field := range strings.Split(cadences, ",") {
		cadence, err := time.ParseDuration(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("rotate: bad -cadences entry %q: %w", field, err)
		}
		sweep = append(sweep, cadence)
	}
	fmt.Printf("rotation under load: %d clients x %d requests, closed-loop over TCP\n", n, perClient)
	fmt.Printf("%-12s  %10s  %12s  %12s  %10s  %12s\n",
		"cadence", "req/s", "p50", "p99", "rotations", "mean stall")
	for _, cadence := range sweep {
		pt, err := bench.E17ServerRun(cadence, n, perClient)
		if err != nil {
			return err
		}
		label := "none"
		if cadence > 0 {
			label = cadence.String()
		}
		fmt.Printf("%-12s  %10.1f  %12s  %12s  %10d  %12s\n",
			label, pt.ReqPerSec,
			pt.P50.Round(time.Microsecond), pt.P99.Round(time.Microsecond),
			pt.Rotations, pt.StallMean.Round(time.Microsecond))
	}
	return nil
}

// allMeasurements gathers every fast-path timing pair: the E11 set
// (GLV/GLS vs reference ladder, multi-pairing, transport), the E12 set
// (pairing tables vs cold Miller loops), the E13 set (Pippenger vs
// Straus, lazy tower vs reducing twins, batched vs per-request
// decryption), the E15 set (chunked MultiPair/PairBatch vs their
// serial lockstep loops), the E16 server row (serial vs batch-window amortized
// per-request cost at 32 concurrent clients), the E17 rotation rows
// (reference RunRef + BeginPeriod vs pipelined: first post-rotation
// batch, serving stall) and the E18 wire rows (pooled framing, compressed
// list encoding).
func allMeasurements() ([]bench.FastPathMeasurement, error) {
	meas, err := bench.FastPathMeasurements()
	if err != nil {
		return nil, err
	}
	tabs, err := bench.E12Measurements()
	if err != nil {
		return nil, err
	}
	thr, err := bench.E13Measurements()
	if err != nil {
		return nil, err
	}
	par, err := bench.E15Measurements()
	if err != nil {
		return nil, err
	}
	srv, err := bench.E16Measurements()
	if err != nil {
		return nil, err
	}
	rot, err := bench.E17Measurements()
	if err != nil {
		return nil, err
	}
	wirefl, err := bench.E18Measurements()
	if err != nil {
		return nil, err
	}
	out := append(append(append(meas, tabs...), thr...), par...)
	return append(append(append(out, srv...), rot...), wirefl...), nil
}

// writeBaseline snapshots the fast-path-vs-reference timings as JSON so
// future changes can be compared against a committed baseline
// (bench_baseline.json at the repository root).
func writeBaseline(path string) error {
	meas, err := allMeasurements()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(meas, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d fast-path measurements to %s\n", len(meas), path)
	return nil
}

// allocRegressed reports whether the measured allocs/op regressed
// against the baseline beyond tolerance. A zero baseline value means
// the baseline predates allocation tracking — skip the check.
func allocRegressed(cur, base bench.FastPathMeasurement) bool {
	if base.FastAllocsPerOp <= 0 {
		return false
	}
	return cur.FastAllocsPerOp > base.FastAllocsPerOp*smokeTolerance+smokeAllocSlack
}

// smokeBytesSlack is the absolute bytes/op headroom on top of
// smokeTolerance for the heap-traffic side of the gate — one small
// object's worth, so ops whose baseline is a few hundred bytes (a
// single returned element) don't trip on size-class rounding.
const smokeBytesSlack = 512.0

// bytesRegressed is allocRegressed for heap bytes per op: it catches a
// path that keeps its allocation count but starts allocating much
// bigger objects (e.g. a scratch buffer sized per call instead of
// pooled). Baselines predating byte tracking record zero — skipped.
func bytesRegressed(cur, base bench.FastPathMeasurement) bool {
	if base.FastBytesPerOp <= 0 {
		return false
	}
	return cur.FastBytesPerOp > base.FastBytesPerOp*smokeTolerance+smokeBytesSlack
}

// runSmoke re-times every hot operation and fails if any fast path runs
// more than smokeTolerance× slower — or allocates more objects than
// smokeTolerance× + smokeAllocSlack, or more bytes than
// smokeTolerance× + smokeBytesSlack, per op — than the committed
// baseline. When an op looks regressed, the whole suite is re-measured
// (up to smokeAttempts passes) and the per-op minimum is kept, so
// one-off scheduler stalls on a busy box do not fail the gate. Ops
// present on only one side are reported but do not fail the run (the
// baseline may predate a newly added op, or an op may have been
// retired).
func runSmoke(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("smoke: reading baseline: %w", err)
	}
	var base []bench.FastPathMeasurement
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("smoke: parsing baseline: %w", err)
	}
	baseByOp := make(map[string]bench.FastPathMeasurement, len(base))
	for _, m := range base {
		baseByOp[m.Op] = m
	}

	cur, err := allMeasurements()
	if err != nil {
		return err
	}
	over := func() bool {
		for _, m := range cur {
			if b, ok := baseByOp[m.Op]; ok &&
				(m.FastNsPerOp > b.FastNsPerOp*smokeTolerance || allocRegressed(m, b) || bytesRegressed(m, b)) {
				return true
			}
		}
		return false
	}
	for attempt := 1; attempt < smokeAttempts && over(); attempt++ {
		fmt.Printf("  (possible regression — re-measuring, pass %d/%d)\n", attempt+1, smokeAttempts)
		again, err := allMeasurements()
		if err != nil {
			return err
		}
		byOp := make(map[string]bench.FastPathMeasurement, len(again))
		for _, m := range again {
			byOp[m.Op] = m
		}
		for i, m := range cur {
			a, ok := byOp[m.Op]
			if !ok {
				continue
			}
			if a.FastNsPerOp < m.FastNsPerOp {
				cur[i].FastNsPerOp = a.FastNsPerOp
			}
			if a.FastAllocsPerOp < m.FastAllocsPerOp {
				cur[i].FastAllocsPerOp = a.FastAllocsPerOp
			}
			if a.FastBytesPerOp < m.FastBytesPerOp {
				cur[i].FastBytesPerOp = a.FastBytesPerOp
			}
		}
	}
	var failed int
	for _, m := range cur {
		b, ok := baseByOp[m.Op]
		if !ok {
			fmt.Printf("  new   %-44s %10.0f ns/op (not in baseline)\n", m.Op, m.FastNsPerOp)
			continue
		}
		delete(baseByOp, m.Op)
		ratio := m.FastNsPerOp / b.FastNsPerOp
		status := "ok    "
		if ratio > smokeTolerance {
			status = "REGR  "
			failed++
		} else if allocRegressed(m, b) {
			status = "ALLOC "
			failed++
		} else if bytesRegressed(m, b) {
			status = "BYTES "
			failed++
		}
		fmt.Printf("  %s%-44s %10.0f ns/op vs baseline %10.0f (%.2fx), %.0f allocs/op vs %.0f, %.0f B/op vs %.0f\n",
			status, m.Op, m.FastNsPerOp, b.FastNsPerOp, ratio, m.FastAllocsPerOp, b.FastAllocsPerOp, m.FastBytesPerOp, b.FastBytesPerOp)
	}
	for op := range baseByOp {
		fmt.Printf("  gone  %-44s (in baseline but no longer measured)\n", op)
	}
	if failed > 0 {
		return fmt.Errorf("smoke: %d hot operation(s) regressed more than %.0f%% vs %s",
			failed, (smokeTolerance-1)*100, path)
	}
	fmt.Printf("smoke: all %d hot operations within %.0f%% of baseline\n",
		len(cur), (smokeTolerance-1)*100)
	return nil
}
