package kary

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/keys"
)

func TestInsertAscendingUsesFastPathAndStaysCorrect(t *testing.T) {
	tree := BuildUnchecked([]uint16{0}, BreadthFirst)
	for v := uint16(1); v < 600; v++ {
		if !tree.Insert(v) {
			t.Fatalf("insert %d reported duplicate", v)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("after insert %d: %v", v, err)
		}
	}
	want := make([]uint16, 600)
	for i := range want {
		want[i] = uint16(i)
	}
	if got := tree.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys after ascending inserts: %v", got[:10])
	}
}

func TestInsertAppendKeepsExistingSlotsFixed(t *testing.T) {
	// The §3.2 fast-path property: while geometry is unchanged (free pad
	// slots remain), appending a new maximum moves no existing key.
	tree := Build([]uint64{1, 2, 3}, BreadthFirst) // r=2, stored 8, 5 pads
	before := tree.Linearized()
	if !tree.Insert(10) {
		t.Fatal("insert failed")
	}
	after := tree.Linearized()
	if len(before) != len(after) {
		t.Fatalf("geometry changed: %d -> %d slots", len(before), len(after))
	}
	for s := 0; s < 3; s++ {
		if tree.At(s) != []uint64{1, 2, 3}[s] {
			t.Fatalf("existing key %d moved", s)
		}
	}
	// All pads must now equal the new maximum.
	for _, x := range after {
		if x != 1 && x != 2 && x != 3 && x != 10 {
			t.Fatalf("stale pad value %d in %v", x, after)
		}
	}
}

func TestInsertDeleteRandomMatchesReferenceSet(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, layout := range Layouts {
		tree := BuildUnchecked[uint16](nil, layout)
		ref := map[uint16]bool{}
		for op := 0; op < 2000; op++ {
			v := uint16(rng.Intn(300))
			if rng.Intn(2) == 0 {
				got := tree.Insert(v)
				want := !ref[v]
				if got != want {
					t.Fatalf("%v insert %d: got %v want %v", layout, v, got, want)
				}
				ref[v] = true
			} else {
				got := tree.Delete(v)
				if got != ref[v] {
					t.Fatalf("%v delete %d: got %v want %v", layout, v, got, ref[v])
				}
				delete(ref, v)
			}
			if op%97 == 0 {
				if err := tree.Validate(); err != nil {
					t.Fatalf("%v op %d: %v", layout, op, err)
				}
			}
		}
		want := make([]uint16, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := tree.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v final keys mismatch: %d vs %d keys", layout, len(got), len(want))
		}
		for v := uint16(0); v < 300; v++ {
			if tree.Contains(v) != ref[v] {
				t.Fatalf("%v contains %d mismatch", layout, v)
			}
		}
	}
}

func TestDeleteFromEmptyAndMissing(t *testing.T) {
	tree := BuildUnchecked[uint32](nil, BreadthFirst)
	if tree.Delete(4) {
		t.Fatal("delete from empty succeeded")
	}
	tree.Insert(7)
	if tree.Delete(4) {
		t.Fatal("delete of missing key succeeded")
	}
	if !tree.Delete(7) || tree.Len() != 0 {
		t.Fatal("delete of present key failed")
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	tree := Build([]int32{-3, 0, 5}, DepthFirst)
	if tree.Insert(0) {
		t.Fatal("duplicate insert accepted")
	}
	if tree.Len() != 3 {
		t.Fatalf("len %d", tree.Len())
	}
}

// TestInsertAscendingDepthFirstFastPath: the depth-first append must also
// leave existing keys in place while geometry is unchanged.
func TestInsertAscendingDepthFirstFastPath(t *testing.T) {
	tree := BuildUnchecked([]uint32{0}, DepthFirst)
	for v := uint32(1); v < 800; v++ {
		if !tree.Insert(v) {
			t.Fatalf("insert %d reported duplicate", v)
		}
		if v%37 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("after insert %d: %v", v, err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	ks := tree.Keys()
	for i, k := range ks {
		if k != uint32(i) {
			t.Fatalf("index %d: %d", i, k)
		}
	}
}

// TestAppendMatchesBuild: an ascending append must leave exactly the
// storage a fresh build over the same keys has — slot for slot, pads
// included — through level changes and depth-first storage growth.
func TestAppendMatchesBuild(t *testing.T) {
	t.Run("int8", checkAppendMatchesBuild[int8])
	t.Run("uint8", checkAppendMatchesBuild[uint8])
	t.Run("int16", checkAppendMatchesBuild[int16])
	t.Run("uint16", checkAppendMatchesBuild[uint16])
	t.Run("int32", checkAppendMatchesBuild[int32])
	t.Run("uint32", checkAppendMatchesBuild[uint32])
	t.Run("int64", checkAppendMatchesBuild[int64])
	t.Run("uint64", checkAppendMatchesBuild[uint64])
}

func checkAppendMatchesBuild[K keys.Key](t *testing.T) {
	// 300 keys take every type through at least two level changes from
	// empty; the 8-bit types stop at their 256 distinct values.
	n := 300
	if keys.Width[K]() == 1 {
		n = 256
	}
	ks := make([]K, n)
	for i := range ks {
		ks[i] = keys.FromOrderedBits[K](uint64(i))
	}
	for _, layout := range Layouts {
		tree := BuildUnchecked[K](nil, layout)
		levelChanges, growths := 0, 0
		for i, x := range ks {
			r, stored := tree.Levels(), tree.Stored()
			if !tree.Insert(x) {
				t.Fatalf("%v insert %v reported duplicate", layout, x)
			}
			if tree.Levels() != r {
				levelChanges++
			} else if tree.Stored() > stored {
				growths++
			}
			want := BuildUnchecked(ks[:i+1], layout)
			if !reflect.DeepEqual(tree.Linearized(), want.Linearized()) {
				t.Fatalf("%v after %d appends: slots %v, build %v", layout, i+1, tree.Linearized(), want.Linearized())
			}
			if tree.Stored() != want.Stored() || tree.Levels() != want.Levels() || tree.MemoryBytes() != want.MemoryBytes() {
				t.Fatalf("%v after %d appends: stored/levels/bytes %d/%d/%d, build %d/%d/%d", layout, i+1,
					tree.Stored(), tree.Levels(), tree.MemoryBytes(), want.Stored(), want.Levels(), want.MemoryBytes())
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if levelChanges < 2 {
			t.Fatalf("%v: only %d level changes from empty", layout, levelChanges)
		}
		if layout == DepthFirst && growths == 0 {
			t.Fatalf("depth-first storage never grew by append")
		}
	}
}

// TestAscendingFillAllocations bounds the allocations of filling one
// default Seg-Tree node (uint64, depth-first) from empty to its perfect
// size of 242 keys by ascending Insert: appends grow the storage
// geometrically, so only the level changes and a few growths allocate.
func TestAscendingFillAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		tree := BuildUnchecked[uint64](nil, DepthFirst)
		for v := uint64(1); v <= 242; v++ {
			tree.Insert(v)
		}
	})
	if allocs > 32 {
		t.Fatalf("filling a node made %v allocations, want at most 32", allocs)
	}
}
