// Command loadbench is the decrypt service's benchmark: a single-process
// load generator that drives the real internal/server over loopback TCP
// through its public API (server.New, RegisterTenant, Serve,
// Client.Decrypt, Client.Refresh) and measures every layer from
// outside — by timing calls into public functions and by wrapping the
// two interfaces the server accepts, device.Channel and net.Listener.
//
//	loadbench --workload window-saturate --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics: the end-to-end set with --trace 0, the per-layer set with
// --trace 1. A wrong plaintext or a stale epoch exits with code 3 and
// no result. README.md in this directory documents every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// workload is one traffic mix. The names are fixed: BENCHMARK.json and
// later changes cite them.
type workload struct {
	name    string
	cfg     server.Config
	tenants int
	// depth is the closed loop's requests in flight, spread over both
	// connections; 0 selects the open loop.
	depth int
	// rate is the open loop's total arrival rate, requests per second.
	rate float64
	// refreshEvery, when positive, adds a refresher on connection 0
	// that starts a rotation each time this many more decrypts have
	// been verified since the previous rotation started.
	refreshEvery int
	// tailPct is the percentile decrypt_tail_ms reports: the highest
	// of p75, p90, p95, p99 and p99.9 that leaves at least 25 samples
	// beyond it at the committed run length and the slowest throughput
	// seen (README.md, "Workloads").
	tailPct float64
}

// poolSize is the number of distinct seeded inputs per tenant. Inputs
// are reused in seeded order; the server keeps no per-ciphertext state.
const poolSize = 128

// rotateEvery is rotate-mixed's cadence in verified decrypts per
// rotation. At 150 the refresher rotates for roughly 40% of the
// measured phase, so rotation and serving both carry a large share of
// the run's CPU. Counting work rather than time keeps that mix when the
// host runs slower or faster (README.md, "Workloads").
const rotateEvery = 150

var workloads = []*workload{
	{name: "window-saturate", cfg: server.Config{BatchSize: 32}, tenants: 1, depth: 32, tailPct: 99},
	{name: "paper-open", cfg: server.Config{Serial: true}, tenants: 2, rate: 4, tailPct: 75},
	{name: "rotate-mixed", cfg: server.Config{}, tenants: 1, depth: 8, refreshEvery: rotateEvery, tailPct: 99},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options are one invocation's settings.
type options struct {
	seed     uint64
	seconds  float64
	smoke    bool
	spansDir string
}

// measured is the length of the measured phase.
func (o options) measured() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	var (
		name  = flag.String("workload", "", "window-saturate, paper-open, rotate-mixed, or all")
		seed  = flag.Uint64("seed", 1, "seed for keys, inputs, request order and arrivals")
		secs  = flag.Float64("seconds", 30, "length of the measured phase")
		trace = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		smoke = flag.Bool("smoke", false, "short set-up, warm-up and probes, for checking the benchmark itself")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *secs, smoke: *smoke, spansDir: filepath.Join(".bench_build", "spans")}

	var list []*workload
	if *name == "all" {
		list = workloads
	} else if w := findWorkload(*name); w != nil {
		list = []*workload{w}
	}
	if len(list) == 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "loadbench: need --workload (window-saturate|paper-open|rotate-mixed|all), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	for _, w := range list {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, opt, os.Stdout)
		} else {
			res, err = runUntraced(w, opt, os.Stdout)
		}
		var fe *fatalError
		if errors.As(err, &fe) {
			fmt.Fprintf(os.Stderr, "loadbench: %s: INCORRECT: %v\n", w.name, err)
			os.Exit(3)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}
