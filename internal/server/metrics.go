package server

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates the serving-path counters the operator guide
// (docs/PERFORMANCE.md, "Batch-window sizing") reads: how full windows
// close, how deep queues run, and what latency the windowing adds.
//
// Every Server owns one Metrics, shared by all its tenants; Expvar
// gives the view a process publishes (cmd/dlrserver publishes its
// server's under "dlrserver").
type Metrics struct {
	requests  atomic.Uint64 // accepted into a window queue
	responses atomic.Uint64 // answered (success or per-request error)
	rejected  atomic.Uint64 // bounced with srv.busy (queue full)
	errors    atomic.Uint64 // responses that carried an error
	windows   atomic.Uint64 // batch windows drained
	refreshes atomic.Uint64 // tenant share refreshes completed

	// Wire-path counters (docs/PERFORMANCE.md, "Payload sizing"): bytes
	// and frames crossing the client-facing connections in each
	// direction. framesOut counts logical response frames, not write
	// syscalls — a vectored window flush moves many frames in one write.
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	framesIn  atomic.Uint64
	framesOut atomic.Uint64

	occupancySum atomic.Uint64 // Σ batch sizes, for the mean

	// Rotation gauges (docs/PERFORMANCE.md, "Rotation cadence sizing"),
	// one sample per committed refresh: stall is the window-loop pause
	// a rotation caused — the commit round trip — and rebuild is the
	// off-loop staging time it spent building the next epoch's share
	// material and tables.
	rotStallLast  atomic.Int64 // ns; most recent rotation's stall
	rotStallSum   atomic.Int64 // ns; Σ stalls, for the mean
	rotRebuildSum atomic.Int64 // ns; Σ rebuild times, for the mean

	mu sync.Mutex
	//dlr:guarded-by mu
	batchHist map[int]uint64 // window size → count (exact sizes)
	//dlr:guarded-by mu
	latRing []time.Duration
	//dlr:guarded-by mu
	latNext int
	//dlr:guarded-by mu
	latCount int
}

// latRingSize bounds the latency reservoir the percentiles are computed
// over: the most recent 8192 responses.
const latRingSize = 8192

func newMetrics() *Metrics {
	return &Metrics{
		batchHist: make(map[int]uint64),
		latRing:   make([]time.Duration, latRingSize),
	}
}

// Expvar returns the expvar view of m: a map of the counters and
// derived gauges, read from a fresh Snapshot on every call.
func (m *Metrics) Expvar() expvar.Func {
	return func() any {
		s := m.Snapshot()
		return map[string]any{
			"requests":       s.Requests,
			"responses":      s.Responses,
			"rejected":       s.Rejected,
			"errors":         s.Errors,
			"windows":        s.Windows,
			"refreshes":      s.Refreshes,
			"bytes_in":       s.BytesIn,
			"bytes_out":      s.BytesOut,
			"frames_in":      s.FramesIn,
			"frames_out":     s.FramesOut,
			"mean_occupancy": s.MeanOccupancy,
			"batch_hist":     s.BatchHist,
			"latency_p50_us": s.P50.Microseconds(),
			"latency_p99_us": s.P99.Microseconds(),

			"rotations_prewarmed":      s.RotationsPrewarmed,
			"rotation_stall_last_us":   s.RotationStallLast.Microseconds(),
			"rotation_stall_mean_us":   s.RotationStallMean.Microseconds(),
			"rotation_rebuild_mean_us": s.RotationRebuildMean.Microseconds(),
		}
	}
}

// recordInbound notes frames received from clients and their on-wire
// size.
func (m *Metrics) recordInbound(frames, bytes int) {
	m.framesIn.Add(uint64(frames))
	m.bytesIn.Add(uint64(bytes))
}

// recordOutbound notes frames sent to clients and their on-wire size.
func (m *Metrics) recordOutbound(frames, bytes int) {
	m.framesOut.Add(uint64(frames))
	m.bytesOut.Add(uint64(bytes))
}

func (m *Metrics) recordRequest() {
	m.requests.Add(1)
}

func (m *Metrics) recordRejected() {
	m.rejected.Add(1)
}

// recordRotation notes one committed refresh: how long it stalled the
// tenant's window loop and how long its off-loop staging took.
func (m *Metrics) recordRotation(stall, rebuild time.Duration) {
	m.refreshes.Add(1)
	m.rotStallLast.Store(int64(stall))
	m.rotStallSum.Add(int64(stall))
	m.rotRebuildSum.Add(int64(rebuild))
}

// recordWindow notes one drained batch window of the given occupancy.
func (m *Metrics) recordWindow(size int) {
	m.windows.Add(1)
	m.occupancySum.Add(uint64(size))
	m.mu.Lock()
	m.batchHist[size]++
	m.mu.Unlock()
}

// recordResponse notes one answered request and its queue-to-response
// latency.
func (m *Metrics) recordResponse(lat time.Duration, failed bool) {
	m.responses.Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.mu.Lock()
	m.latRing[m.latNext] = lat
	m.latNext = (m.latNext + 1) % len(m.latRing)
	if m.latCount < len(m.latRing) {
		m.latCount++
	}
	m.mu.Unlock()
}

// Snapshot is a point-in-time copy of the counters with derived
// percentiles.
type Snapshot struct {
	Requests, Responses, Rejected, Errors uint64
	Windows, Refreshes                    uint64
	// BytesIn/BytesOut and FramesIn/FramesOut count client-facing wire
	// traffic in each direction.
	BytesIn, BytesOut   uint64
	FramesIn, FramesOut uint64
	// MeanOccupancy is the average number of requests per drained
	// window (0 when no window has drained).
	MeanOccupancy float64
	// BatchHist maps window occupancy to how many windows closed at it.
	BatchHist map[int]uint64
	// P50 and P99 are nearest-rank queue-to-response latency
	// percentiles over the most recent latRingSize responses, so
	// P50 ≤ P99 at every sample count.
	P50, P99 time.Duration
	// RotationsPrewarmed counts committed rotations, so it equals
	// Refreshes: every rotation stages and prewarms the next epoch's
	// tables off the window loop.
	RotationsPrewarmed uint64
	// RotationsCold is always 0: the server has no other rotation path.
	// It stays only because the loadbench module reads it.
	RotationsCold uint64
	// RotationStallLast is the window-loop pause of the most recent
	// rotation; RotationStallMean and RotationRebuildMean average over
	// all rotations (0 when none have run).
	RotationStallLast   time.Duration
	RotationStallMean   time.Duration
	RotationRebuildMean time.Duration
}

// Snapshot captures the current counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Requests:  m.requests.Load(),
		Responses: m.responses.Load(),
		Rejected:  m.rejected.Load(),
		Errors:    m.errors.Load(),
		Windows:   m.windows.Load(),
		Refreshes: m.refreshes.Load(),
		BytesIn:   m.bytesIn.Load(),
		BytesOut:  m.bytesOut.Load(),
		FramesIn:  m.framesIn.Load(),
		FramesOut: m.framesOut.Load(),
		BatchHist: make(map[int]uint64),
	}
	if s.Windows > 0 {
		s.MeanOccupancy = float64(m.occupancySum.Load()) / float64(s.Windows)
	}
	s.RotationsPrewarmed = s.Refreshes
	s.RotationStallLast = time.Duration(m.rotStallLast.Load())
	if n := s.RotationsPrewarmed; n > 0 {
		s.RotationStallMean = time.Duration(m.rotStallSum.Load() / int64(n))
		s.RotationRebuildMean = time.Duration(m.rotRebuildSum.Load() / int64(n))
	}
	m.mu.Lock()
	for k, v := range m.batchHist {
		s.BatchHist[k] = v
	}
	lats := make([]time.Duration, m.latCount)
	copy(lats, m.latRing[:m.latCount])
	m.mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		s.P50 = lats[nearestRank(len(lats), 50)]
		s.P99 = lats[nearestRank(len(lats), 99)]
	}
	return s
}

// nearestRank returns the index of the pct-th percentile in n sorted
// samples by the nearest-rank rule: the ⌈pct·n/100⌉-th smallest.
func nearestRank(n, pct int) int {
	return (pct*n+99)/100 - 1
}
