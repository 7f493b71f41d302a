package main

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100): the smallest sample with at least p% of the samples at or below
// it. xs must be sorted ascending. Nearest rank is monotone in p, so
// p50 ≤ p99 for every n — unlike the server snapshot's two rank rules.
// The second result is the number of samples strictly beyond the
// chosen rank. An empty sample gives 0, 0.
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n - rank
}

// sortedMs converts durations to sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for even n). xs need not be sorted; it is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// seededReader is a deterministic byte stream (AES-CTR keyed by the
// seed and a label), so key material, plaintexts and encryption coins
// are a function of --seed alone. Not safe for concurrent use.
type seededReader struct{ s cipher.Stream }

func newSeeded(seed uint64, label string) io.Reader {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	key := sha256.Sum256(append([]byte("loadbench/"+label+"/"), b[:]...))
	blk, err := aes.NewCipher(key[:16])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	return &seededReader{s: cipher.NewCTR(blk, key[16:])}
}

func (r *seededReader) Read(p []byte) (int, error) {
	clear(p)
	r.s.XORKeyStream(p, p)
	return len(p), nil
}
