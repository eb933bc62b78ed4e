package segtrie

import (
	"testing"

	"repro/internal/kary"
)

// White-box corruption tests for both trie variants.

func TestValidateCatchesChildCountMismatch(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	tr.Put(1<<40, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.root.children = tr.root.children[:len(tr.root.children)-1]
	if err := tr.Validate(); err == nil {
		t.Fatal("child count mismatch accepted")
	}
}

func TestValidateCatchesWrongTrieSize(t *testing.T) {
	tr := NewDefault[uint32, int]()
	tr.Put(5, 5)
	tr.size = 7
	if err := tr.Validate(); err == nil {
		t.Fatal("wrong size accepted")
	}
}

func TestValidateCatchesInnerNodeWithValues(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	tr.root.vals = []int{9}
	if err := tr.Validate(); err == nil {
		t.Fatal("inner node with values accepted")
	}
}

func TestValidateCatchesEmptyInteriorNode(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	// Empty the level-1 node behind the root's back.
	child := tr.root.children[0]
	child.kt = *kary.BuildUnchecked[uint8](nil, tr.cfg.Layout)
	child.children = nil
	if err := tr.Validate(); err == nil {
		t.Fatal("empty interior node accepted")
	}
}

func TestOptimizedValidateCatchesUncompressedChain(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.Put(0x0101, 1)
	opt.Put(0x0202, 2)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	// An inner node with a single key must have been compressed away;
	// fabricate one.
	bad := &node[int]{kt: *kary.BuildUnchecked([]uint8{1}, opt.cfg.Layout)}
	bad.children = []*node[int]{opt.root.children[0]}
	bad.prefix = nil
	opt.root.children[0] = bad
	if err := opt.Validate(); err == nil {
		t.Fatal("uncompressed chain accepted")
	}
}

func TestOptimizedValidateCatchesLevelArithmetic(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.Put(42, 0)
	// Truncate the root prefix: the value node no longer sits at the last
	// level.
	opt.root.prefix = opt.root.prefix[:len(opt.root.prefix)-1]
	if err := opt.Validate(); err == nil {
		t.Fatal("level arithmetic violation accepted")
	}
}

func TestOptimizedValidateCatchesPhantomSize(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.size = 3
	if err := opt.Validate(); err == nil {
		t.Fatal("phantom size accepted")
	}
}
