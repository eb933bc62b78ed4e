package simdtree_test

import (
	"testing"

	simdtree "repro"
	"repro/internal/btree"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

func TestFacadeSegTree(t *testing.T) {
	tr := simdtree.NewSegTree[uint32, string]()
	if !tr.Put(42, "answer") {
		t.Fatal("put")
	}
	if v, ok := tr.Get(42); !ok || v != "answer" {
		t.Fatal("get")
	}
	if _, ok := tr.Get(43); ok {
		t.Fatal("phantom")
	}
	cfg := segtree.DefaultConfig[uint32]()
	if cfg.LeafCap != 338 {
		t.Fatalf("default config leaf cap %d", cfg.LeafCap)
	}
	cfg.Layout = simdtree.BreadthFirst
	cfg.Evaluator = simdtree.SwitchCase
	// The options form builds the same tree as the config form.
	tr2 := simdtree.NewSegTree[uint32, string](
		simdtree.WithLayout(simdtree.BreadthFirst), simdtree.WithEvaluator(simdtree.SwitchCase))
	if got, want := tr2.Config(), segtree.New[uint32, string](cfg).Config(); got != want {
		t.Fatalf("options config %+v, want %+v", got, want)
	}
	tr2.Put(7, "seven")
	if v, ok := tr2.Get(7); !ok || v != "seven" {
		t.Fatal("custom config get")
	}
}

func TestFacadeBulkLoadAndScan(t *testing.T) {
	ks := make([]uint64, 1000)
	vs := make([]int, 1000)
	for i := range ks {
		ks[i] = uint64(i * 2)
		vs[i] = i
	}
	seg := simdtree.BulkLoadSegTree(ks, vs)
	base := simdtree.BulkLoadBPlusTree(ks, vs,
		simdtree.WithLeafCap(64), simdtree.WithBranchCap(64))
	// The options forms build the same trees as the config forms.
	seg2 := segtree.BulkLoad(segtree.DefaultConfig[uint64](), ks, vs)
	if seg2.Len() != seg.Len() || seg2.Config() != seg.Config() {
		t.Fatalf("config bulk load diverged: %d != %d", seg2.Len(), seg.Len())
	}
	base2 := btree.BulkLoad(btree.Config{LeafCap: 64, BranchCap: 64}, ks, vs)
	if base2.Len() != base.Len() || base2.Config() != base.Config() {
		t.Fatalf("config B+ bulk load diverged: %d != %d", base2.Len(), base.Len())
	}
	count := 0
	seg.Scan(100, 200, func(k uint64, v int) bool { count++; return true })
	if count != 51 {
		t.Fatalf("seg scan count %d", count)
	}
	count = 0
	base.Scan(100, 200, func(k uint64, v int) bool { count++; return true })
	if count != 51 {
		t.Fatalf("base scan count %d", count)
	}
}

func TestFacadeTries(t *testing.T) {
	trie := simdtree.NewSegTrie[uint64, int]()
	opt := simdtree.NewOptimizedSegTrie[uint64, int]()
	for i := 0; i < 1000; i++ {
		trie.Put(uint64(i), i)
		opt.Put(uint64(i), i)
	}
	if v, ok := trie.Get(999); !ok || v != 999 {
		t.Fatal("trie get")
	}
	if v, ok := opt.Get(999); !ok || v != 999 {
		t.Fatal("optimized get")
	}
	if trie.Levels() != 8 {
		t.Fatal("trie levels")
	}
	cfg := simdtree.SegTrieConfig{Layout: simdtree.DepthFirst, Evaluator: simdtree.BitShift}
	opts := []simdtree.Option{simdtree.WithLayout(simdtree.DepthFirst), simdtree.WithEvaluator(simdtree.BitShift)}
	tr2 := simdtree.NewSegTrie[uint32, int](opts...)
	if got, want := tr2.Config(), segtrie.New[uint32, int](cfg).Config(); got != want {
		t.Fatalf("trie options config %+v, want %+v", got, want)
	}
	tr2.Put(5, 5)
	if !tr2.Contains(5) {
		t.Fatal("custom trie")
	}
	opt2 := simdtree.NewOptimizedSegTrie[uint32, int](opts...)
	if got, want := opt2.Config(), segtrie.NewOptimized[uint32, int](cfg).Config(); got != want {
		t.Fatalf("optimized trie options config %+v, want %+v", got, want)
	}
	opt2.Put(5, 5)
	if !opt2.Contains(5) {
		t.Fatal("custom optimized trie")
	}
}

func TestFacadeKaryTree(t *testing.T) {
	sorted := []int64{1, 5, 9, 12, 20, 33, 47, 58}
	kt := simdtree.BuildKaryTree(sorted, simdtree.BreadthFirst)
	for _, v := range []int64{0, 1, 5, 6, 58, 60} {
		if got, want := kt.Search(v, simdtree.Popcount), simdtree.UpperBound(sorted, v); got != want {
			t.Fatalf("search %d: got %d want %d", v, got, want)
		}
	}
}

func TestFacadeTable2Constants(t *testing.T) {
	if simdtree.KValue[uint8]() != 17 || simdtree.ParallelComparisons[uint8]() != 16 {
		t.Fatal("8-bit table 2")
	}
	if simdtree.KValue[uint64]() != 3 || simdtree.ParallelComparisons[uint64]() != 2 {
		t.Fatal("64-bit table 2")
	}
}
