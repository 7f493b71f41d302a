package bn254

import (
	"math/big"
	"testing"
)

// The fixed-base tables are built once per process and then serve
// every ScalarBaseMult; the random-scalar tests reach only the entries
// their scalars' digits select. These tests check all
// fbWindows·fbTableSize entries of each table against the reference
// ladder: entry (w, d) holds (d+1)·2^(4w)·G.

// fixedBaseScalar returns (d+1)·2^(fbWindowBits·w).
func fixedBaseScalar(w, d int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(int64(d+1)), uint(fbWindowBits*w))
}

func TestFixedBaseTableG1(t *testing.T) {
	tbl := g1FixedBaseTable()
	for w := 0; w < fbWindows; w++ {
		for d := 0; d < fbTableSize; d++ {
			var want G1
			want.ScalarMultReference(g1Gen, fixedBaseScalar(w, d))
			if !tbl[w][d].Equal(&want) {
				t.Fatalf("G1 table entry (window %d, digit %d) != %d·2^%d·G", w, d, d+1, fbWindowBits*w)
			}
		}
	}
}

func TestFixedBaseTableG2(t *testing.T) {
	tbl := g2FixedBaseTable()
	gen := G2Generator()
	for w := 0; w < fbWindows; w++ {
		for d := 0; d < fbTableSize; d++ {
			var want G2
			want.ScalarMultReference(gen, fixedBaseScalar(w, d))
			if !tbl[w][d].Equal(&want) {
				t.Fatalf("G2 table entry (window %d, digit %d) != %d·2^%d·G", w, d, d+1, fbWindowBits*w)
			}
		}
	}
}
