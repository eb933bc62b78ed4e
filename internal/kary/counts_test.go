package kary

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// comparedLevels is the number of k-ary levels a search for v compares,
// derived from the tree's geometry rather than from the descent: rank is
// the number of keys ≤ v. A search at or above S_max compares nothing.
// Breadth-first, the last-level node a search reaches is the count of
// upper-level keys ≤ v, and it exists only below m. Depth-first, every
// level is compared: entering a subtree of pads means passing the
// separator before it, which is S_max or a pad, and v < S_max.
func comparedLevels[K keys.Key](tree *Tree[K], sorted []K, v K, rank int) int {
	n, r, k := tree.Len(), tree.Levels(), keys.K[K]()
	if n == 0 || v >= sorted[n-1] {
		return 0
	}
	if tree.Layout() == DepthFirst {
		return r
	}
	upper := 0
	for s := 0; s < rank; s++ {
		if tree.pos(s) < pow(k, r-1)-1 {
			upper++
		}
	}
	if upper >= tree.m {
		return r - 1
	}
	return r
}

// checkCounts runs Lookup, Search and their traced forms for every probe,
// evaluator and layout, and checks the answers against UpperBound and the
// per-call obs counts against comparedLevels: one node visit, Levels()
// levels descended unless the search short-circuits, and one SIMD compare
// and one mask evaluation per compared level.
func checkCounts[K keys.Key](t *testing.T, seed int64, sizes []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var c obs.Counters
	prev := obs.Enable(&c)
	defer obs.Enable(prev)
	for _, layout := range Layouts {
		for _, n := range sizes {
			sorted := randomSorted[K](rng, n)
			tree := Build(sorted, layout)
			for _, v := range probes(rng, sorted, 32) {
				rank := UpperBound(sorted, v)
				found := rank > 0 && sorted[rank-1] == v
				cmp := comparedLevels(tree, sorted, v, rank)
				want := obs.CounterSnapshot{SIMDComparisons: uint64(cmp), MaskEvaluations: uint64(cmp), NodeVisits: 1}
				if n > 0 && v < sorted[n-1] {
					want.LevelsDescended = uint64(tree.Levels())
				}
				for _, ev := range bitmask.Evaluators {
					name := fmt.Sprintf("%T/%v/n=%d/%v/v=%v", v, layout, n, ev, v)
					calls := []struct {
						call string
						run  func() (int, bool, *trace.Trace)
					}{
						{"Lookup", func() (int, bool, *trace.Trace) {
							r, f := tree.Lookup(v, ev)
							return r, f, nil
						}},
						{"LookupPT", func() (int, bool, *trace.Trace) {
							tr := trace.New("lookup", "")
							r, f := tree.LookupPT(v, Prepare(v), ev, tr)
							return r, f, tr
						}},
						{"Search", func() (int, bool, *trace.Trace) {
							return tree.Search(v, ev), found, nil
						}},
						{"SearchPT", func() (int, bool, *trace.Trace) {
							tr := trace.New("search", "")
							return tree.SearchPT(v, Prepare(v), ev, tr), found, tr
						}},
					}
					for _, call := range calls {
						c.Reset()
						gotRank, gotFound, tr := call.run()
						if gotRank != rank || gotFound != found {
							t.Fatalf("%s %s = (%d,%v), want (%d,%v)", name, call.call, gotRank, gotFound, rank, found)
						}
						if got := c.Read(); got != want {
							t.Fatalf("%s %s counted %+v, want %+v", name, call.call, got, want)
						}
						if tr != nil && (tr.SIMDComparisons() != cmp || tr.MaskEvaluations() != cmp) {
							t.Fatalf("%s %s traced %d compares and %d evaluations, want %d",
								name, call.call, tr.SIMDComparisons(), tr.MaskEvaluations(), cmp)
						}
					}
				}
			}
		}
	}
}

// TestSearchCountsEveryKeyType pins, for all eight key types, both
// layouts and all three evaluators, that a search answers as UpperBound
// does and counts exactly the levels it compares: none on the S_max
// short-circuit and no missing breadth-first leaf. Traced and untraced
// calls count the same. The sizes give complete and incomplete last
// levels and truncated depth-first storage.
func TestSearchCountsEveryKeyType(t *testing.T) {
	small := []int{0, 1, 2, 15, 16, 17, 40, 100, 200}
	t.Run("uint8", func(t *testing.T) { checkCounts[uint8](t, 31, small) })
	t.Run("int8", func(t *testing.T) { checkCounts[int8](t, 32, small) })
	t.Run("uint16", func(t *testing.T) { checkCounts[uint16](t, 33, []int{0, 1, 8, 9, 10, 80, 81, 90, 404}) })
	t.Run("int16", func(t *testing.T) { checkCounts[int16](t, 34, []int{1, 9, 50, 100, 500}) })
	t.Run("uint32", func(t *testing.T) { checkCounts[uint32](t, 35, []int{0, 1, 4, 5, 6, 24, 25, 30, 124, 338}) })
	t.Run("int32", func(t *testing.T) { checkCounts[int32](t, 36, []int{2, 7, 30, 200}) })
	t.Run("uint64", func(t *testing.T) { checkCounts[uint64](t, 37, []int{0, 1, 2, 3, 8, 9, 10, 26, 27, 100, 242, 300}) })
	t.Run("int64", func(t *testing.T) { checkCounts[int64](t, 38, []int{2, 5, 26, 100, 250}) })
}
