package dlr

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bn254"
	"repro/internal/hpske"
	"repro/internal/pss"
)

// This file exposes measured internals for the experiment harness
// (internal/bench). Nothing here is part of the deployment API.

// ExposeShareForTest reconstructs P1's plaintext share — test and
// experiment support only.
func ExposeShareForTest(p *P1) (*pss.Share1, error) { return p.sharePlain() }

// MeasureTransportAblation compares the §5.2 ciphertext-reuse device
// (deriving a GT ciphertext from an existing G2 ciphertext by κ+1
// pairings with A) against encrypting a fresh GT ciphertext from
// scratch (κ oblivious GT samples + κ exponentiations). It returns rows
// for the E10 ablation table.
func MeasureTransportAblation(rng io.Reader, p *P1) ([][]string, error) {
	a, _, err := bn254.RandG1(rng)
	if err != nil {
		return nil, err
	}
	f := p.encSK1[0]

	start := time.Now()
	tct := hpske.TransportMany(p.ctr, a, []*hpske.Ciphertext[*bn254.G2]{f})[0]
	transportD := time.Since(start)

	// The value the transport produced, encrypted from scratch instead.
	plain, err := p.ssGT.Decrypt(p.skcomm, tct)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := p.ssGT.Encrypt(rng, p.skcomm, plain); err != nil {
		return nil, err
	}
	freshD := time.Since(start)

	return [][]string{
		{"ciphertext reuse", "transport fᵢ → dᵢ (κ+1 pairings)", fmt.Sprintf("%.2fms", float64(transportD.Microseconds())/1000)},
		{"ciphertext reuse", "fresh Enc'_GT (κ hash-to-GT + κ exps)", fmt.Sprintf("%.2fms", float64(freshD.Microseconds())/1000)},
	}, nil
}
