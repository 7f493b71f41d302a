package dlr

import (
	"crypto/rand"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/wire"
)

// These tests inject protocol faults: a device receiving garbage,
// truncated ciphertext lists, or out-of-protocol frame kinds must fail
// with a clean error — never panic, never produce a wrong result
// silently.

func TestP2RejectsUnknownFrameKind(t *testing.T) {
	_, _, p2 := genTest(t, params.ModeOptimalRate)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			if err := ch.Send(wire.Msg{Kind: "evil.frame", Payload: []byte("junk")}); err != nil {
				return err
			}
			return nil
		},
		p2.Serve,
	)
	if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("P2 accepted unknown frame kind: %v", err)
	}
}

func TestP2RejectsGarbagePayload(t *testing.T) {
	_, _, p2 := genTest(t, params.ModeOptimalRate)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			return ch.Send(wire.Msg{Kind: "dlr.dec1", Payload: []byte{0xde, 0xad, 0xbe, 0xef}})
		},
		p2.Serve,
	)
	if err == nil {
		t.Fatal("P2 accepted garbage decryption payload")
	}
}

func TestP2RejectsTruncatedCiphertextList(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)

	// Intercept P1's dec1 frame and truncate it before delivery.
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, &truncatingChannel{Channel: ch, dropBytes: 100}, ct)
			return err
		},
		p2.Serve,
	)
	if err == nil {
		t.Fatal("truncated ciphertext list accepted")
	}
}

// truncatingChannel drops trailing bytes from every sent payload.
type truncatingChannel struct {
	device.Channel
	dropBytes int
}

func (c *truncatingChannel) Send(m wire.Msg) error {
	if len(m.Payload) > c.dropBytes {
		m.Payload = m.Payload[:len(m.Payload)-c.dropBytes]
	}
	return c.Channel.Send(m)
}

func TestP1RejectsWrongReplyKind(t *testing.T) {
	pk, p1, _ := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, ch, ct)
			return err
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			// Reply with the wrong frame kind.
			return ch.Send(wire.Msg{Kind: "dlr.ref2", Payload: nil})
		},
	)
	if err == nil || !strings.Contains(err.Error(), "expected dlr.dec2") {
		t.Fatalf("P1 accepted wrong reply kind: %v", err)
	}
}

func TestP1RejectsMalformedReply(t *testing.T) {
	pk, p1, _ := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, ch, ct)
			return err
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			return ch.Send(wire.Msg{Kind: "dlr.dec2", Payload: []byte{1, 2, 3}})
		},
	)
	if err == nil {
		t.Fatal("P1 accepted malformed dec2 reply")
	}
}

func TestP1RejectsNilCiphertext(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)
	if _, _, err := Decrypt(rand.Reader, p1, p2, nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, _, err := Decrypt(rand.Reader, p1, p2, &Ciphertext{}); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
}

// TestTamperedProtocolGivesWrongMessageNotPanic documents CPA-protocol
// behaviour under an active attacker: flipping a GT coordinate inside
// the dec1 frame must not crash either device; it yields a wrong
// message (integrity is the CCA2 scheme's job).
func TestTamperedProtocolGivesWrongMessageNotPanic(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			mOut, err := p1.RunDec(rand.Reader, &bitFlipChannel{Channel: ch}, ct)
			if err != nil {
				// Tolerated: tampering may surface as a decode error.
				return nil
			}
			if mOut.Equal(m) {
				t.Error("tampered protocol still produced the correct message")
			}
			return nil
		},
		func(ch device.Channel) error {
			// P2 may legitimately reject the tampered frame.
			_ = p2.Serve(ch)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// bitFlipChannel flips one byte near the end of each sent payload
// (inside the last GT coordinate encoding, keeping the field element
// valid with high probability).
type bitFlipChannel struct {
	device.Channel
}

func (c *bitFlipChannel) Send(m wire.Msg) error {
	if len(m.Payload) > 40 {
		p := append([]byte(nil), m.Payload...)
		p[len(p)-1] ^= 0x01
		m.Payload = p
	}
	return c.Channel.Send(m)
}

// TestBatchCacheFaultyReplyPublishesNothing checks a protocol fault
// cannot poison the batch session: when the dec-batch reply fails to
// decode, RunDecBatch errors out before any table build and installs
// nothing, so the next honest batch starts cold and decrypts
// correctly.
func TestBatchCacheFaultyReplyPublishesNothing(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)

	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDecBatch(ch, []*Ciphertext{ct})
			if err == nil {
				t.Error("P1 accepted malformed decB2 reply")
			}
			return nil
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			return ch.Send(wire.Msg{Kind: "dlr.decB2", Payload: []byte{0xde, 0xad}})
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if p1.BatchWarm() {
		t.Fatal("faulty batch installed a batch session")
	}

	got, _, err := DecryptBatch(p1, p2, []*Ciphertext{ct})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Equal(m) {
		t.Fatal("honest batch after faulty reply decrypted wrongly")
	}
}
