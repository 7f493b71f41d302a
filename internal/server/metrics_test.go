package server

import (
	"testing"
	"time"
)

// TestSnapshotPercentiles pins the nearest-rank rule: P50 and P99 are
// the ⌈0.50·n⌉-th and ⌈0.99·n⌉-th smallest samples, so P50 never
// exceeds P99, however few responses have been recorded.
func TestSnapshotPercentiles(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 time.Duration // as sample ranks (1-based), in ms
	}{
		{n: 1, p50: 1, p99: 1},
		{n: 2, p50: 1, p99: 2},
		{n: 3, p50: 2, p99: 3},
		{n: 100, p50: 50, p99: 99},
	} {
		m := newMetrics(nil)
		// Record the samples largest first, so the result cannot depend
		// on arrival order.
		for i := tc.n; i >= 1; i-- {
			m.recordResponse(time.Duration(i)*time.Millisecond, false)
		}
		s := m.Snapshot()
		if s.P50 > s.P99 {
			t.Errorf("n=%d: P50 %v > P99 %v", tc.n, s.P50, s.P99)
		}
		if want := tc.p50 * time.Millisecond; s.P50 != want {
			t.Errorf("n=%d: P50 = %v, want %v", tc.n, s.P50, want)
		}
		if want := tc.p99 * time.Millisecond; s.P99 != want {
			t.Errorf("n=%d: P99 = %v, want %v", tc.n, s.P99, want)
		}
	}
}

// TestConfigDefaultWindow pins what a zero Config resolves to: a zero
// Window means the 2ms default, not eager draining (only a negative
// Window drains eagerly).
func TestConfigDefaultWindow(t *testing.T) {
	if got := (Config{}).withDefaults().Window; got != 2*time.Millisecond {
		t.Fatalf("Config{} resolves to a %v window, want 2ms", got)
	}
	if got := (Config{Window: -1}).withDefaults().Window; got >= 0 {
		t.Fatalf("negative Window resolved to %v, want it kept negative (eager drain)", got)
	}
}
