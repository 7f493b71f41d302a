package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// counts is the sent/succeeded/failed tally of one operation kind.
type counts struct{ sent, ok, failed atomic.Int64 }

func (c *counts) String() string {
	return fmt.Sprintf("%d/%d/%d", c.sent.Load(), c.ok.Load(), c.failed.Load())
}

// phase collects what one stretch of traffic did: client-observed
// latencies of verified decrypts and refreshes, generator lag, and the
// first error seen (failures are counted, not fatal).
type phase struct {
	name      string
	dec, ref  counts
	wall      time.Duration
	mu        sync.Mutex
	lat       []time.Duration // successful decrypts, from due time
	refLat    []time.Duration // successful refreshes
	lag       []time.Duration // generator lag: see closedLoop and openLoop
	firstFail error

	fatal atomic.Pointer[fatalError]
}

func (ph *phase) fail(err error) {
	ph.mu.Lock()
	if ph.firstFail == nil {
		ph.firstFail = err
	}
	ph.mu.Unlock()
}

func (ph *phase) abort(msg string) { ph.fatal.CompareAndSwap(nil, &fatalError{msg}) }

func (ph *phase) aborted() bool { return ph.fatal.Load() != nil }

// decrypt sends input idx of tenant ti over conn and checks the
// plaintext. due is when the request was meant to go out; latency is
// counted from it. It returns when the reply arrived.
func (st *stack) decrypt(ph *phase, ti, worker, idx int, due time.Time) time.Time {
	t := st.tenants[ti]
	ph.dec.sent.Add(1)
	req := st.reqIDs.Add(1)
	start := time.Now()
	got, err := st.connFor(ti, worker).Decrypt(t.name, t.cts[idx])
	end := time.Now()
	st.tr.record(0, 0, req, spanClientDecrypt, start, end)
	if err != nil {
		ph.dec.failed.Add(1)
		ph.fail(err)
		return end
	}
	if !got.Equal(t.msgs[idx]) {
		ph.dec.failed.Add(1)
		ph.abort(fmt.Sprintf("wrong plaintext: %s input %d", t.name, idx))
		return end
	}
	ph.dec.ok.Add(1)
	ph.mu.Lock()
	ph.lat = append(ph.lat, end.Sub(due))
	ph.mu.Unlock()
	return end
}

// sampleBytes is the heap the phase's own sample buffers hold. They
// grow with throughput and are the generator's, not the service's.
func (ph *phase) sampleBytes() uint64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	const durationSize = 8
	return uint64(cap(ph.lat)+cap(ph.refLat)+cap(ph.lag)) * durationSize
}

func (ph *phase) addLag(d time.Duration) {
	ph.mu.Lock()
	ph.lag = append(ph.lag, d)
	ph.mu.Unlock()
}

// refresh rotates tenant 0 over connection 0 and checks the rotation:
// the epoch the server returns must exceed the previous one and match
// TenantEpoch, and a decrypt right after must verify. It returns the
// new epoch.
func (st *stack) refresh(ph *phase, prev uint64, r *rand.Rand) uint64 {
	t := st.tenants[0]
	ph.ref.sent.Add(1)
	req := st.reqIDs.Add(1)
	start := time.Now()
	epoch, err := st.clients[0].Refresh(t.name)
	end := time.Now()
	st.tr.record(0, 0, req, spanClientRefresh, start, end)
	if err != nil {
		ph.ref.failed.Add(1)
		ph.fail(err)
		return prev
	}
	if now, _ := st.srv.TenantEpoch(t.name); epoch <= prev || now < epoch {
		ph.ref.failed.Add(1)
		ph.abort(fmt.Sprintf("stale epoch after refresh of %s: was %d, reply %d, TenantEpoch %d", t.name, prev, epoch, now))
		return prev
	}
	ph.ref.ok.Add(1)
	ph.mu.Lock()
	ph.refLat = append(ph.refLat, end.Sub(start))
	ph.mu.Unlock()
	st.decrypt(ph, 0, 0, r.IntN(len(t.cts)), time.Now())
	return epoch
}

// refreshPoll is how often the refresher checks whether enough decrypts
// have been verified for the next rotation.
const refreshPoll = time.Millisecond

// closedLoop runs w.depth workers, each sending its next decrypt only
// after the previous one returns, until dur has passed; with a refresh
// cadence set, one more goroutine rotates tenant 0 on connection 0
// whenever w.refreshEvery more decrypts have been verified since its
// previous rotation started. The seed fixes every worker's request
// order. A worker's lag is the time from one reply to its next send:
// the generator's own turnaround.
func (st *stack) closedLoop(ph *phase, dur time.Duration, seed uint64) {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < st.w.depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, uint64(w)))
			var last time.Time
			for time.Now().Before(deadline) && !ph.aborted() {
				idx := r.IntN(len(st.tenants[0].cts))
				now := time.Now()
				if !last.IsZero() {
					ph.addLag(now.Sub(last))
				}
				last = st.decrypt(ph, 0, w, idx, now)
			}
		}()
	}
	if every := int64(st.w.refreshEvery); every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, math.MaxUint64))
			epoch, _ := st.srv.TenantEpoch(st.tenants[0].name)
			for time.Now().Before(deadline) && !ph.aborted() {
				next := ph.dec.ok.Load() + every
				epoch = st.refresh(ph, epoch, r)
				for ph.dec.ok.Load() < next && time.Now().Before(deadline) && !ph.aborted() {
					time.Sleep(refreshPoll)
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at          time.Duration
	tenant, idx int
}

// schedule lays out round(rate·dur) arrivals over [0, dur). The gaps
// between them are the exponential distribution's quantiles at
// (i+½)/n — the gap sizes of a Poisson process at this rate, sampled
// evenly instead of at random — in an order the seed shuffles, scaled
// so the schedule spans dur. Every seed thus offers the same load and
// the same mix of short and long gaps; only their order, the tenant of
// each arrival (balanced across tenants) and its input vary.
func schedule(rate float64, dur time.Duration, tenants, pool int, seed uint64) []arrival {
	r := rand.New(rand.NewPCG(seed, 0x6f70656e))
	n := int(math.Round(rate * dur.Seconds()))
	gaps := make([]float64, n)
	var total float64
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
		total += gaps[i]
	}
	r.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	// The n gaps end at the last arrival; one more mean gap would reach
	// dur.
	scale := float64(dur) * float64(n) / float64(n+1) / total
	out := make([]arrival, n)
	var at float64
	for i := range out {
		at += gaps[i] * scale
		out[i] = arrival{at: time.Duration(at), tenant: i % tenants, idx: r.IntN(pool)}
	}
	r.Shuffle(n, func(i, j int) { out[i].tenant, out[j].tenant = out[j].tenant, out[i].tenant })
	return out
}

// maxOutstanding bounds the open loop's concurrent requests; a full
// bound delays dispatch, which shows up as generator lag.
const maxOutstanding = 64

// openLoop sends each arrival at its scheduled time whether or not
// earlier ones have returned. Latency runs from the scheduled time, so
// queueing behind a slow request counts; lag records how late the
// generator itself dispatched.
func (st *stack) openLoop(ph *phase, dur time.Duration, seed uint64) {
	arrivals := schedule(st.w.rate, dur, len(st.tenants), len(st.tenants[0].cts), seed)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range arrivals {
		if ph.aborted() {
			break
		}
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		ph.addLag(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			st.decrypt(ph, a.tenant, a.tenant, a.idx, due)
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
}

// run drives one phase of w's traffic shape.
func (st *stack) run(ph *phase, dur time.Duration, seed uint64) {
	if st.w.depth > 0 {
		st.closedLoop(ph, dur, seed)
	} else {
		st.openLoop(ph, dur, seed)
	}
}

// quietRefreshes times n rotations on an otherwise idle server, each
// checked like the refresher's; workloads without in-phase rotation
// take refresh_p50_ms and the rotation gauges from these.
func (st *stack) quietRefreshes(ph *phase, n int, seed uint64) {
	r := rand.New(rand.NewPCG(seed, 0x71756965))
	epoch, _ := st.srv.TenantEpoch(st.tenants[0].name)
	for i := 0; i < n && !ph.aborted(); i++ {
		epoch = st.refresh(ph, epoch, r)
	}
}
