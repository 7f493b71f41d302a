package dlr

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/hpske"
	"repro/internal/params"
	"repro/internal/wire"
)

// detReader is a deterministic byte stream (SHA-256 in counter mode
// over a fixed label), so key generation and every P1-side protocol
// message built from it are constants.
type detReader struct {
	label string
	ctr   uint64
	buf   []byte
}

func (r *detReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if len(r.buf) == 0 {
			var blk [8]byte
			binary.BigEndian.PutUint64(blk[:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(append([]byte(r.label), blk[:]...))
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return len(p), nil
}

// frameDigest hashes the wire encoding of msgs in order.
func frameDigest(t *testing.T, msgs ...wire.Msg) string {
	t.Helper()
	h := sha256.New()
	for _, m := range msgs {
		b, err := wire.AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recordOne runs one protocol exchange between p1side and p2.Serve and
// returns its digest plus the frames P1 sent.
func recordOne(t *testing.T, p1side func(device.Channel) error, p2 *P2) (string, []wire.Msg) {
	t.Helper()
	r1, _, err := device.Run(p1side, p2.Serve)
	if err != nil {
		t.Fatal(err)
	}
	sent, recv := r1.Transcript()
	return frameDigest(t, append(append([]wire.Msg(nil), sent...), recv...)...), sent
}

// TestWireFixedVectors pins the device frames and the marshaled P1
// state to the bytes the v2 wire layout has always produced. Keys and
// P1's coins come from detReader, so every P1 → P2 frame, P2's
// randomness-free decrypt replies and P1.Marshal are constants; the
// digests were recorded from the encoders that introduced the layout.
// A digest match shows the current encoders write exactly those
// bytes, and the protocol run that follows shows the current decoders
// read them (the refresh replies carry P2's fresh scalars, so only the
// refresh requests are pinned).
func TestWireFixedVectors(t *testing.T) {
	prm, err := params.New(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := map[params.Mode]map[string]string{
		params.ModeBasic: {
			"marshal": "72225c71d48da5d231993704dc94cb15773b4363a862633af3d1c55f2d40f41f",
			"dec":     "068f8389e65481050a940f432dda6fe82266935245c7f91c0203871e4b908f38",
			"decb":    "f75f8c1e252bb4e62446d32668158af184aed6e3646a599c00303400503ef633",
			"refp1":   "6a5a26220d11c236cfc666768fdca6cf63be11bdaab94341cf1edf3018f7ff83",
			"ref1":    "b840971aea6520fd8166313b7879addfc2fa0255b46c4312c9fac904a76399bc",
		},
		params.ModeOptimalRate: {
			"marshal": "ee7d30aafcbfdcfd3dc782b1f65485b54a89812a17ef62879204df79aef463ca",
			"dec":     "9779a47ce162d633ec8b707ffb9836c134942dd49d7cd0cf273f0f65ee4936bb",
			"decb":    "c568aaa1544747b0f06c2f1b22968172c6a55b28f518b194b56e8d667f9bfd56",
			"refp1":   "a948c8f681ae3258ca364cc268d6d9e536a8883006f1ef7d091029f1594f1610",
			"ref1":    "c705dc3625f6999769f20d1196614e1ad6506f9e038802081e0195bc485ffbd9",
		},
	}
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := &detReader{label: "dlr fixed vectors " + mode.String()}
			pk, p1, p2, err := Gen(rng, prm, WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			blob, err := p1.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			got["marshal"] = hex.EncodeToString(sum[:])

			m, err := RandMessage(rng, pk)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Encrypt(rng, pk, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			var dec, decb []*bn254.GT
			got["dec"], _ = recordOne(t, func(ch device.Channel) error {
				out, err := p1.RunDec(rng, ch, c)
				dec = append(dec, out)
				return err
			}, p2)
			got["decb"], _ = recordOne(t, func(ch device.Channel) error {
				out, err := p1.RunDecBatch(ch, []*Ciphertext{c})
				decb = append(decb, out...)
				return err
			}, p2)
			if !dec[0].Equal(m) || !decb[0].Equal(m) {
				t.Fatal("fixed-vector decryption returned the wrong message")
			}

			st, err := p1.StageRefresh(rng)
			if err != nil {
				t.Fatal(err)
			}
			got["refp1"] = frameDigest(t, wire.Msg{Kind: kindRefP1, Payload: st.payload})
			st.Abandon()

			_, sent := recordOne(t, func(ch device.Channel) error { return p1.RunRef(rng, ch) }, p2)
			got["ref1"] = frameDigest(t, sent...)

			// The pinned state restores and decrypts against a P2
			// regenerated from the same fixed stream (the live p2 has
			// moved on to the refreshed share).
			_, _, p2b, err := Gen(&detReader{label: "dlr fixed vectors " + mode.String()}, prm, WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			q1, err := UnmarshalP1(pk, blob, nil)
			if err != nil {
				t.Fatal(err)
			}
			mq, _, err := Decrypt(rand.Reader, q1, p2b, c)
			if err != nil {
				t.Fatal(err)
			}
			if !mq.Equal(m) {
				t.Fatal("P1 restored from the pinned state decrypted the wrong message")
			}

			for k, v := range got {
				if want[mode][k] != v {
					t.Errorf("%s digest %s, want %s", k, v, want[mode][k])
				}
			}
		})
	}
}

// TestUnmarshalP1LegacyState checks that state in the pre-compression
// layouts — raw 128-byte plaintext-share points, or a count ‖ raw
// encrypted-share list — is rejected with an error rather than
// restored.
func TestUnmarshalP1LegacyState(t *testing.T) {
	prm, err := params.New(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	pk, p1, _, err := Gen(rand.Reader, prm, WithMode(params.ModeBasic))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p := wire.NewParser(blob)
	modeU, _ := p.Uint32()
	skRaw, _ := p.Bytes()
	shRaw, _ := p.Bytes()
	encRaw, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	var rawSh []byte
	for _, a := range p1.sk1.Coins {
		rawSh = append(rawSh, a.Bytes()...)
	}
	rawSh = append(rawSh, p1.sk1.Payload.Bytes()...)
	var rawEnc wire.Builder
	rawEnc.AppendUint32(uint32(prm.Ell + 1))
	for _, ct := range append(append([]*hpske.Ciphertext[*bn254.G2](nil), p1.encSK1...), p1.encPhi) {
		b, err := p1.ssG2.Bytes(ct)
		if err != nil {
			t.Fatal(err)
		}
		rawEnc.AppendRaw(b)
	}

	for name, fields := range map[string][2][]byte{
		"raw share points": {rawSh, encRaw},
		"raw share list":   {shRaw, rawEnc.Bytes()},
	} {
		var b wire.Builder
		b.AppendUint32(modeU)
		b.AppendBytes(skRaw)
		b.AppendBytes(fields[0])
		b.AppendBytes(fields[1])
		if _, err := UnmarshalP1(pk, b.Bytes(), nil); err == nil {
			t.Errorf("%s: legacy state restored, want an error", name)
		}
	}
}
