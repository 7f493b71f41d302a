package main

import (
	"net"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/wire"
)

// devLink observes one tenant's device channel from both ends: the
// P1 end the server drives and the P2 end p2.ServeLoop drives. The
// counters run in every pass; spans only while the tracer is on.
type devLink struct {
	tr *tracer

	roundTrips atomic.Uint64 // P1 Send→Recv pairs completed
	bytes      atomic.Uint64 // frame bytes sent by both ends

	// rtID is the span id of the P1 round trip in flight, so the P2
	// span can name it as parent. The local channel orders P1's Send
	// before P2's Recv, so the store is visible when P2 loads it.
	rtID atomic.Uint64
}

// p1End wraps the channel end the server's window loop owns. Only that
// goroutine calls Send and Recv, and always in Send→Recv pairs.
type p1End struct {
	device.Channel
	l      *devLink
	sentAt time.Time
	id     uint64
}

func (c *p1End) Send(m wire.Msg) error {
	c.l.bytes.Add(uint64(m.Size()))
	c.id = 0
	if c.l.tr.active() {
		c.id = c.l.tr.id()
	}
	c.l.rtID.Store(c.id)
	c.sentAt = time.Now()
	return c.Channel.Send(m)
}

func (c *p1End) Recv() (wire.Msg, error) {
	m, err := c.Channel.Recv()
	if err == nil && !c.sentAt.IsZero() {
		c.l.roundTrips.Add(1)
		c.l.tr.record(c.id, 0, 0, spanP1RoundTrip, c.sentAt, time.Now())
		c.sentAt = time.Time{}
	}
	return m, err
}

// p2End wraps the channel end p2.ServeLoop owns: Recv→Send is P2's
// busy time for one request.
type p2End struct {
	device.Channel
	l      *devLink
	recvAt time.Time
	parent uint64
}

func (c *p2End) Recv() (wire.Msg, error) {
	m, err := c.Channel.Recv()
	c.recvAt = time.Now()
	c.parent = c.l.rtID.Load()
	return m, err
}

func (c *p2End) Send(m wire.Msg) error {
	c.l.bytes.Add(uint64(m.Size()))
	c.l.tr.record(0, c.parent, 0, spanP2Handle, c.recvAt, time.Now())
	return c.Channel.Send(m)
}

// countingListener wraps the server's listener so every accepted
// connection counts its conn.Write calls: the wire layer's
// frames-per-write coalescing is frames sent ÷ these writes.
type countingListener struct {
	net.Listener
	tr     *tracer
	writes atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.l.tr.active() {
		c.l.writes.Add(1)
		return c.Conn.Write(p)
	}
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.tr.record(0, 0, 0, spanServerWrite, start, time.Now())
	return n, err
}

// Span names, one per layer boundary the benchmark can see.
const (
	spanClientDecrypt = "client.decrypt"
	spanClientRefresh = "client.refresh"
	spanServerWrite   = "server.write"
	spanP1RoundTrip   = "device.p1_roundtrip"
	spanP2Handle      = "device.p2_handle"
	spanProbes        = "probes"
)
