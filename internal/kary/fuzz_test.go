package kary

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitmask"
)

// FuzzSearchUint16 feeds arbitrary byte strings as key sets and probes and
// checks every search path against the scalar binary search.
func FuzzSearchUint16(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint16(3), false)
	f.Add([]byte{0xFF, 0xFE, 0x00, 0x01}, uint16(0xFFFE), true)
	f.Add([]byte{}, uint16(9), false)
	f.Fuzz(func(t *testing.T, raw []byte, probe uint16, df bool) {
		set := map[uint16]struct{}{}
		for i := 0; i+1 < len(raw); i += 2 {
			set[uint16(raw[i])|uint16(raw[i+1])<<8] = struct{}{}
		}
		sorted := make([]uint16, 0, len(set))
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		layout := BreadthFirst
		if df {
			layout = DepthFirst
		}
		tree := Build(sorted, layout)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		want := UpperBound(sorted, probe)
		wantFound := want > 0 && sorted[want-1] == probe
		for _, ev := range bitmask.Evaluators {
			if got := tree.Search(probe, ev); got != want {
				t.Fatalf("%v search(%d): got %d want %d", ev, probe, got, want)
			}
		}
		rank, found := tree.Lookup(probe, bitmask.Popcount)
		if rank != want || found != wantFound {
			t.Fatalf("lookup(%d): got (%d,%v) want (%d,%v)", probe, rank, found, want, wantFound)
		}
		if got := tree.SearchWithEquality(probe, bitmask.Popcount); got != want {
			t.Fatalf("eq-search(%d): got %d want %d", probe, got, want)
		}
	})
}

// FuzzInsertDelete drives mutations from a fuzzed op stream against a map,
// once per layout.
func FuzzInsertDelete(f *testing.F) {
	f.Add([]byte{1, 2, 3, 130, 2, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, layout := range Layouts {
			tree := BuildUnchecked[uint8](nil, layout)
			ref := map[uint8]bool{}
			for _, op := range ops {
				k := op & 0x7F
				if op&0x80 == 0 {
					if tree.Insert(k) != !ref[k] {
						t.Fatalf("%v insert %d", layout, k)
					}
					ref[k] = true
				} else {
					if tree.Delete(k) != ref[k] {
						t.Fatalf("%v delete %d", layout, k)
					}
					delete(ref, k)
				}
			}
			if tree.Len() != len(ref) {
				t.Fatalf("%v len %d want %d", layout, tree.Len(), len(ref))
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
		}
	})
}

// FuzzAppendUint64DF fills the default Seg-Tree node type (uint64,
// depth-first) by ascending Insert, with the gaps between consecutive
// keys taken from the fuzz input, and compares the result slot for slot
// with Build over the same keys.
func FuzzAppendUint64DF(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{128, 255, 7, 0, 0, 3, 128, 64, 2, 9, 1, 0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, gaps []byte) {
		if len(gaps) == 0 {
			return
		}
		// The first byte places the run; 128 starts it just below 2^63,
		// so it crosses the sign-bit realignment of the unsigned lanes.
		x := uint64(gaps[0])<<56 - 1<<16
		var ks []uint64
		for _, g := range gaps[1:] {
			ks = append(ks, x)
			next := x + uint64(g) + 1
			if next < x {
				break
			}
			x = next
		}
		tree := BuildUnchecked[uint64](nil, DepthFirst)
		for _, k := range ks {
			if !tree.Insert(k) {
				t.Fatalf("insert %d reported duplicate", k)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		want := Build(ks, DepthFirst)
		if !reflect.DeepEqual(tree.Linearized(), want.Linearized()) {
			t.Fatalf("appended slots %v, build %v", tree.Linearized(), want.Linearized())
		}
		if tree.Stored() != want.Stored() || tree.Levels() != want.Levels() || tree.MemoryBytes() != want.MemoryBytes() {
			t.Fatalf("stored/levels/bytes %d/%d/%d, build %d/%d/%d",
				tree.Stored(), tree.Levels(), tree.MemoryBytes(), want.Stored(), want.Levels(), want.MemoryBytes())
		}
	})
}
