package segtrie

import (
	"testing"

	"repro/internal/index"
	"repro/internal/obs"
)

// TestTupleIDGetCounts pins the per-Get cost of both variants on the
// paper's tuple-ID workload: 1000 consecutive 64-bit keys, then the same
// keys plus one key far away (1<<60), which splits the optimized trie's
// root. Probes are the 1000 stored keys (hits), the 100 keys above them
// (misses) and a 100-key band around the far key. The totals are exact:
// every plain-trie hit visits one node per level (8) and compares the six
// single-key chain nodes with one scalar compare each; the optimized trie
// skips those levels through its stored prefix.
func TestTupleIDGetCounts(t *testing.T) {
	type counts struct{ visits, simd, scalar uint64 }
	cases := []struct {
		name              string
		optimized, far    bool
		hits, misses, bnd counts
	}{
		{"segtrie", false, false, counts{8000, 1230, 6000}, counts{724, 0, 600}, counts{100, 0, 100}},
		{"segtrie+far", false, true, counts{8000, 2230, 5000}, counts{724, 100, 500}, counts{450, 50, 350}},
		{"opt-segtrie", true, false, counts{2000, 1230, 0}, counts{124, 0, 0}, counts{0, 0, 0}},
		{"opt-segtrie+far", true, true, counts{3000, 2230, 0}, counts{224, 100, 0}, counts{150, 50, 50}},
	}
	const n, far = 1000, uint64(1) << 60
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tr index.Index[uint64, int] = NewDefault[uint64, int]()
			if tc.optimized {
				tr = NewOptimizedDefault[uint64, int]()
			}
			for k := 0; k < n; k++ {
				tr.Put(uint64(k), k)
			}
			if tc.far {
				tr.Put(far, -1)
			}
			measure := func(what string, lo, hi uint64, want counts) {
				t.Helper()
				var c obs.Counters
				prev := obs.Enable(&c)
				for k := lo; k < hi; k++ {
					tr.Get(k)
				}
				obs.Enable(prev)
				s := c.Read()
				got := counts{s.NodeVisits, s.SIMDComparisons, s.ScalarComparisons}
				if got != want {
					t.Errorf("%s: (visits, simd, scalar) = %v, want %v", what, got, want)
				}
			}
			measure("hits", 0, n, tc.hits)
			measure("misses", n, n+100, tc.misses)
			measure("far band", far-50, far+50, tc.bnd)
		})
	}
}
