package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The generator's percentiles must never report a median above the
// tail, least of all on the tiny samples where the server snapshot's
// two rank rules disagree.
func TestPercentileTinySamples(t *testing.T) {
	for n := 1; n <= 3; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(10 * (i + 1))
		}
		p50, _ := percentile(xs, 50)
		for _, w := range workloads {
			tail, beyond := percentile(xs, w.tailPct)
			if p50 > tail {
				t.Errorf("n=%d: p50 %v > p%g %v", n, p50, w.tailPct, tail)
			}
			if beyond < 0 || beyond >= n {
				t.Errorf("n=%d: %d samples beyond p%g", n, beyond, w.tailPct)
			}
		}
	}
	if v, beyond := percentile([]float64{1, 2, 3, 4}, 50); v != 2 || beyond != 2 {
		t.Errorf("p50 of 1..4 = %v (%d beyond), want 2 (2 beyond)", v, beyond)
	}
	if v, _ := percentile(nil, 99); v != 0 {
		t.Errorf("p99 of nothing = %v, want 0", v)
	}
}

// decrypt_tail_ms reports the highest of the usual percentiles that
// leaves at least 25 samples beyond it at the committed run length. A
// closed loop's sample count is taken at the slowest decrypt_rps its
// ten-seed sets saw; the open loop's is fixed by its schedule.
func TestTailPercentileRule(t *testing.T) {
	const margin = 25
	slowestRps := map[string]float64{"window-saturate": 418, "rotate-mixed": 253}
	secs := committedSeconds(t)
	for _, w := range workloads {
		n := int(slowestRps[w.name] * secs.Seconds())
		if w.depth == 0 {
			n = len(schedule(w.rate, secs, w.tenants, poolSize, 1))
		}
		want := 0.0
		for _, p := range []float64{75, 90, 95, 99, 99.9} {
			if _, beyond := percentile(make([]float64, n), p); beyond >= margin {
				want = p
			}
		}
		if w.tailPct != want {
			t.Errorf("%s: tail p%g, but p%g is the highest that leaves ≥ %d of %d samples beyond it",
				w.name, w.tailPct, want, margin, n)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(4, 10*time.Second, 2, 64, 7)
	b := schedule(4, 10*time.Second, 2, 64, 7)
	c := schedule(4, 10*time.Second, 2, 64, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 40 {
		t.Fatalf("4 req/s over 10 s gave %d arrivals, want 40", len(a))
	}
	per := make([]int, 2)
	for i := range a {
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatal("arrivals are not in time order")
		}
		per[a[i].tenant]++
	}
	if last := a[len(a)-1].at; last >= 10*time.Second || last < 9*time.Second {
		t.Errorf("last arrival at %v, want within the last second of 10 s", last)
	}
	if per[0] != per[1] {
		t.Errorf("tenants got %v arrivals, want an even split", per)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped to the parent
	}
	got := map[string]spanStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if p := got["parent"]; p.Self != 50 || p.Total != 100 {
		t.Errorf("parent self %d total %d, want 50 and 100", p.Self, p.Total)
	}
	if c := got["child"]; c.Count != 3 || c.Self != 80 {
		t.Errorf("children count %d self %d, want 3 and 80", c.Count, c.Self)
	}
}

// BENCHMARK.json names the same workloads and metrics, with the same
// units and directions, as this program prints, and states each
// workload's tail percentile.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		wl := findWorkload(w.Name)
		if wl == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
			continue
		}
		if tag := fmt.Sprintf("tail p%g", wl.tailPct); !strings.Contains(w.Why, tag) {
			t.Errorf("%s: why %q does not state %q", w.Name, w.Why, tag)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
	check := func(kind string, got []benchMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// rotate-mixed rotates once per rotateEvery verified decrypts, counted
// from the start of the previous rotation, and a closed loop reports
// its throughput and CPU per decrypt over 1-second intervals.
func TestRotateCadenceAndIntervals(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real server")
	}
	w := findWorkload("rotate-mixed")
	p, err := runPass(w, options{seed: 5, seconds: 6, smoke: true}, 6*time.Second, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, ref := p.meas.dec.ok.Load(), p.meas.ref.ok.Load()
	if ref < 1 || ref > dec/int64(w.refreshEvery)+1 {
		t.Errorf("%d rotations for %d verified decrypts, want 1..%d", ref, dec, dec/int64(w.refreshEvery)+1)
	}
	if n := len(p.intervals); n < minIntervals || n > 6 {
		t.Errorf("%d intervals in a 6 s phase, want %d..6", n, minIntervals)
	}
	if p.rps() <= 0 || p.cpuMsPerDecrypt() <= 0 {
		t.Errorf("interval medians rps %v, CPU %v ms, want both > 0", p.rps(), p.cpuMsPerDecrypt())
	}
}

// TestSmoke drives every workload briefly, untraced and traced, and
// checks that each prints every metric and that the traced run shows
// the layer split the workloads claim.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real server")
	}
	opt := options{seed: 3, seconds: 1, smoke: true, spansDir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, opt, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			res, err = runTraced(w, opt, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			m := func(name string) float64 { return res.Metrics[name].Value }
			switch w.name {
			case "paper-open":
				if rt := m("device.round_trips_per_req"); rt < 0.9 || rt > 1.1 {
					t.Errorf("round trips per request %v, want ≈ 1", rt)
				}
				if occ := m("server.window_occupancy"); occ != 1 {
					t.Errorf("window occupancy %v, want 1", occ)
				}
			case "window-saturate":
				if rt := m("device.round_trips_per_req"); rt >= 0.01 {
					t.Errorf("round trips per request %v, want < 0.01", rt)
				}
				if occ := m("server.window_occupancy"); occ <= 16 {
					t.Errorf("window occupancy %v, want > 16", occ)
				}
			case "rotate-mixed":
				if s := m("server.rotation_stall_mean_ms"); s <= 0 {
					t.Errorf("rotation stall %v ms, want > 0", s)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
			t.Errorf("metric %s: %+v, want unit %s", d.name, got, d.unit)
		}
	}
}

type benchMetric struct{ Name, Unit, Better string }

type benchJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func committedSeconds(t *testing.T) time.Duration {
	return time.Duration(readBenchmarkJSON(t).RunSeconds) * time.Second
}
