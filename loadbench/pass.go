package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/opcount"
	"repro/internal/server"
)

// pass is one complete drive of a workload: set-up (possibly several
// times), a warm-up phase, the measured phase, and the refreshes whose
// latency refresh_p50_ms reports. Every counter below is a delta over
// the measured phase unless it says otherwise.
type pass struct {
	w      *workload
	setups []time.Duration

	warm, meas *phase
	// refr is the phase whose refreshes are timed: the measured phase
	// when the workload rotates in it, else a quiet check after it.
	refr *phase

	cpu        time.Duration
	allocBytes uint64
	numGC      uint32
	heapLive   uint64 // after a forced GC at the end of the measured phase

	srv0, srv1 server.Snapshot // around the measured phase
	rot0, rot1 server.Snapshot // around refr
	devRT      uint64
	devBytes   uint64
	writes     uint64
	p1, p2     map[opcount.Op]int64
	p2RefG2    int64 // P2 G2 exponentiations during refr
	queueMean  float64
	intervals  []interval // the measured phase's intervals, closed loops only
	spans      []span     // measured phase only
	allSpans   []span     // measured phase and refresh check
}

// Phase lengths outside the measured phase.
const (
	closedWarm     = time.Second
	openWarm       = 2 * time.Second
	smokeWarm      = 200 * time.Millisecond
	quietRefreshes = 31
)

// runPass drives w once, measuring for dur. With a tracer, the devices
// carry op counters, spans are recorded from the measured phase on and
// the queue depth is sampled.
func runPass(w *workload, opt options, dur time.Duration, setups int, tr *tracer) (*pass, error) {
	traced := tr != nil
	p := &pass{w: w}
	var st *stack
	for i := 0; i < setups; i++ {
		s, d, err := startStack(w, opt.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, d)
		if i < setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	if err := st.fillInputs(opt.seed, poolSize); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}

	warm := closedWarm
	if w.depth == 0 {
		warm = openWarm
	}
	if opt.smoke {
		warm = smokeWarm
	}
	p.warm = &phase{name: "warm-up"}
	st.run(p.warm, warm, opt.seed^0x7761726d)
	if fe := p.warm.fatal.Load(); fe != nil {
		return nil, fe
	}

	p.meas = &phase{name: "measured"}
	links0 := st.linkTotals()
	writes0 := st.ln.writes.Load()
	p10, p20 := st.ctrP1.Snapshot(), st.ctrP2.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p.srv0 = st.srv.Metrics().Snapshot()
	stopSampler := func() float64 { return 0 }
	if traced {
		stopSampler = sampleQueue(st.srv)
		tr.on.Store(true)
	}
	stopIntervals := func() []interval { return nil }
	if w.depth > 0 {
		stopIntervals = sampleIntervals(p.meas, intervalLen)
	}
	cpu0 := cpuTime()
	st.run(p.meas, dur, opt.seed)
	p.cpu = cpuTime() - cpu0
	p.intervals = stopIntervals()
	p.spans = tr.snapshot()
	p.queueMean = stopSampler()
	p.srv1 = st.srv.Metrics().Snapshot()
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.numGC = ms1.NumGC - ms0.NumGC
	p.p1 = opcount.Diff(st.ctrP1.Snapshot(), p10)
	p.p2 = opcount.Diff(st.ctrP2.Snapshot(), p20)
	links1 := st.linkTotals()
	p.devRT, p.devBytes = links1.roundTrips-links0.roundTrips, links1.bytes-links0.bytes
	p.writes = st.ln.writes.Load() - writes0
	if fe := p.meas.fatal.Load(); fe != nil {
		return nil, fe
	}
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count as
	// retained. HeapAlloc counts the live objects; HeapInuse would add
	// the free slots of partly used spans, which swung by about 0.9 MB
	// between identical rotate-mixed runs. The generator's latency
	// samples are left out.
	runtime.GC()
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)
	p.heapLive = held.HeapAlloc - p.warm.sampleBytes() - p.meas.sampleBytes()

	if w.refreshEvery > 0 {
		p.refr, p.rot0, p.rot1 = p.meas, p.srv0, p.srv1
		p.p2RefG2 = p.p2[opcount.G2Exp]
		p.allSpans = p.spans
		return p, nil
	}
	n := quietRefreshes
	if opt.smoke {
		n = 1
	}
	p.refr = &phase{name: "refresh-check"}
	g2Before := st.ctrP2.Get(opcount.G2Exp)
	p.rot0 = st.srv.Metrics().Snapshot()
	st.quietRefreshes(p.refr, n, opt.seed)
	p.rot1 = st.srv.Metrics().Snapshot()
	p.p2RefG2 = st.ctrP2.Get(opcount.G2Exp) - g2Before
	p.allSpans = tr.snapshot()
	if fe := p.refr.fatal.Load(); fe != nil {
		return nil, fe
	}
	return p, nil
}

// linkTotals sums the device-link counters over all tenants.
func (st *stack) linkTotals() (t struct{ roundTrips, bytes uint64 }) {
	for _, tn := range st.tenants {
		t.roundTrips += tn.link.roundTrips.Load()
		t.bytes += tn.link.bytes.Load()
	}
	return t
}

// sampleQueue polls the server's queue-depth gauge every millisecond
// until the returned stop function is called; stop returns the mean.
func sampleQueue(srv *server.Server) (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var sum, n float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sum += float64(srv.QueueDepth())
				n++
			case <-done:
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		if n == 0 {
			return 0
		}
		return sum / n
	}
}

// intervalLen is the length of the intervals a closed loop's
// throughput and CPU per decrypt are taken over.
const intervalLen = time.Second

// minIntervals is the fewest intervals whose median is reported;
// shorter runs report over the whole measured phase.
const minIntervals = 5

// interval is one stretch of a closed loop's measured phase.
type interval struct {
	rps, cpuMs float64 // verified decrypts per second, CPU ms per verified decrypt
}

// sampleIntervals cuts the phase into intervals of length every until
// the returned stop function is called; stop returns the intervals, the
// last one only if it lasted at least half as long as the others.
func sampleIntervals(ph *phase, every time.Duration) (stop func() []interval) {
	type mark struct {
		at  time.Time
		ok  int64
		cpu time.Duration
	}
	now := func() mark { return mark{time.Now(), ph.dec.ok.Load(), cpuTime()} }
	var out []interval
	add := func(a, b mark, shortest time.Duration) {
		d := b.at.Sub(a.at)
		if n := b.ok - a.ok; d >= shortest && n > 0 {
			out = append(out, interval{float64(n) / d.Seconds(), ms(b.cpu-a.cpu) / float64(n)})
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	last := now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m := now()
				add(last, m, 0)
				last = m
			case <-done:
				return
			}
		}
	}()
	return func() []interval {
		close(done)
		wg.Wait()
		add(last, now(), every/2)
		return out
	}
}

// decrypts is the number of verified decrypts in the measured phase.
func (p *pass) decrypts() float64 { return float64(p.meas.dec.ok.Load()) }

// rps is verified decrypts per second of the measured phase: for a
// closed loop the median over its intervals, so a few seconds in which
// the host ran slow do not move it.
func (p *pass) rps() float64 {
	if len(p.intervals) >= minIntervals {
		return medianOf(p.intervals, func(w interval) float64 { return w.rps })
	}
	return p.decrypts() / p.meas.wall.Seconds()
}

// cpuMsPerDecrypt is process CPU per verified decrypt in the measured
// phase, for a closed loop the median over its intervals; it includes the
// in-process P2 and the generator itself.
func (p *pass) cpuMsPerDecrypt() float64 {
	if len(p.intervals) >= minIntervals {
		return medianOf(p.intervals, func(w interval) float64 { return w.cpuMs })
	}
	return ms(p.cpu) / p.decrypts()
}

func medianOf(ws []interval, f func(interval) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// tally returns the operations attempted and failed across the phases
// whose outputs feed the metrics.
func (p *pass) tally() (attempted, failed int64) {
	phases := []*phase{p.meas}
	if p.refr != p.meas {
		phases = append(phases, p.refr)
	}
	for _, ph := range phases {
		attempted += ph.dec.sent.Load() + ph.ref.sent.Load()
		failed += ph.dec.failed.Load() + ph.ref.failed.Load()
	}
	return attempted, failed
}
