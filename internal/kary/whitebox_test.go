package kary

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/keys"
)

// White-box corruption tests: Validate must catch damaged internal state.

func TestValidateCatchesCorruptKeyData(t *testing.T) {
	tree := Build([]uint32{10, 20, 30, 40, 50, 60, 70}, BreadthFirst)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the slot holding the smallest key with a huge value: the
	// delinearized sequence is no longer sorted.
	keys.PutAt(tree.data, tree.pos(0), uint32(99999))
	if err := tree.Validate(); err == nil {
		t.Fatal("corrupt key data accepted")
	}
}

func TestValidateCatchesDuplicateKeys(t *testing.T) {
	tree := Build([]uint32{10, 20, 30, 40}, DepthFirst)
	keys.PutAt(tree.data, tree.pos(1), uint32(10)) // duplicate of key 0
	err := tree.Validate()
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") && !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateCatchesSMaxMismatch(t *testing.T) {
	tree := Build([]uint32{1, 2, 3}, BreadthFirst)
	tree.smax = 999
	if err := tree.Validate(); err == nil {
		t.Fatal("smax mismatch accepted")
	}
}

func TestValidateCatchesMisalignedStorage(t *testing.T) {
	tree := Build([]uint32{1, 2, 3, 4, 5}, BreadthFirst)
	tree.stored++
	if err := tree.Validate(); err == nil {
		t.Fatal("misaligned storage accepted")
	}
}

func TestValidateCatchesZeroValueTree(t *testing.T) {
	var tree Tree[uint32]
	if err := tree.Validate(); err == nil {
		t.Fatal("zero-value tree accepted")
	}
}

func TestValidateCatchesPhantomStorageOnEmptyTree(t *testing.T) {
	tree := BuildUnchecked[uint32](nil, BreadthFirst)
	tree.stored = 4
	tree.data = make([]byte, 16)
	if err := tree.Validate(); err == nil {
		t.Fatal("phantom storage accepted")
	}
}

func TestValidateCatchesStalePad(t *testing.T) {
	for _, layout := range Layouts {
		tree := Build([]uint32{10, 20, 30, 40, 50}, layout)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		// A pad still holding an older maximum, as an append that skipped
		// its refresh would leave it: the real keys stay intact.
		slot := -1
		for s, real := range tree.realSlots() {
			if !real {
				slot = s
				break
			}
		}
		if slot < 0 {
			t.Fatalf("%v: no pad slot", layout)
		}
		keys.PutAt(tree.data, slot, uint32(40))
		err := tree.Validate()
		if err == nil || !strings.Contains(err.Error(), "pad") {
			t.Fatalf("%v: stale pad accepted: %v", layout, err)
		}
	}
}

// TestTreeFitsOneCacheLine pins the header size: a Tree is embedded by
// value in every Seg-Tree and Seg-Trie node, and a search reads it before
// the first key, so it must fit one 64-byte line for every key type.
func TestTreeFitsOneCacheLine(t *testing.T) {
	for name, size := range map[string]uintptr{
		"uint8": unsafe.Sizeof(Tree[uint8]{}), "int16": unsafe.Sizeof(Tree[int16]{}),
		"uint32": unsafe.Sizeof(Tree[uint32]{}), "int64": unsafe.Sizeof(Tree[int64]{}),
	} {
		if size > 64 {
			t.Errorf("Tree[%s] is %d bytes, want at most 64", name, size)
		}
	}
}
