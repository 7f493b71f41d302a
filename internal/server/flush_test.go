package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// countingConn records every Write call so tests can pin the
// one-syscall-per-flush property of the vectored response path.
type countingConn struct {
	net.Conn // nil; only Write is exercised
	writes   int
	buf      bytes.Buffer
	closed   bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func (c *countingConn) Close() error {
	c.closed = true
	return nil
}

// TestSessionFlushCoalesces checks that enqueue buffers frames without
// touching the connection and a flush moves all of them in exactly one
// Write, byte-identical to frame-at-a-time encoding.
func TestSessionFlushCoalesces(t *testing.T) {
	conn := &countingConn{}
	ss := &session{conn: conn, m: newMetrics()}

	frames := []wire.MuxMsg{
		{ID: 1, Kind: KindDecResult, Payload: []byte("aaaa")},
		{ID: 7, Kind: KindDecResult, Payload: []byte("bb")},
		{ID: 3, Kind: KindErr, Payload: []byte("\x00\x00\x00\x01e")},
	}
	for _, m := range frames {
		ss.enqueue(m)
	}
	if conn.writes != 0 {
		t.Fatalf("enqueue performed %d writes, want 0", conn.writes)
	}
	ss.flush()
	if conn.writes != 1 {
		t.Fatalf("flush performed %d writes, want exactly 1", conn.writes)
	}
	// Idempotent when empty.
	ss.flush()
	if conn.writes != 1 {
		t.Fatalf("empty flush wrote to the connection")
	}

	var want bytes.Buffer
	for _, m := range frames {
		if err := wire.WriteMux(&want, m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(conn.buf.Bytes(), want.Bytes()) {
		t.Fatal("coalesced flush bytes differ from frame-at-a-time encoding")
	}

	snap := ss.m.Snapshot()
	if snap.FramesOut != uint64(len(frames)) {
		t.Fatalf("FramesOut = %d, want %d", snap.FramesOut, len(frames))
	}
	if snap.BytesOut != uint64(want.Len()) {
		t.Fatalf("BytesOut = %d, want %d", snap.BytesOut, want.Len())
	}
}

// TestFlushSessionsDedupes checks the window-drain flush touches each
// distinct session exactly once.
func TestFlushSessionsDedupes(t *testing.T) {
	connA, connB := &countingConn{}, &countingConn{}
	a := &session{conn: connA, m: newMetrics()}
	b := &session{conn: connB, m: newMetrics()}
	batch := []*request{
		{sess: a, enq: time.Now()},
		{sess: b, enq: time.Now()},
		{sess: a, enq: time.Now()},
		{sess: a, enq: time.Now()},
	}
	for _, req := range batch {
		req.sess.enqueue(wire.MuxMsg{ID: 1, Kind: KindDecResult, Payload: []byte("x")})
	}
	flushSessions(batch)
	if connA.writes != 1 || connB.writes != 1 {
		t.Fatalf("writes = %d/%d, want 1/1", connA.writes, connB.writes)
	}
}
