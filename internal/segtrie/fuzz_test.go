package segtrie

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/keys"
)

// FuzzTrieOps drives a fuzzed operation stream through both trie variants
// and a reference map, then checks every ordered access path against the
// sorted reference. The stream runs twice: on 16-bit keys, and on 64-bit
// keys whose second byte lands on a segment chosen by its value, which
// builds long single-key chains and diverges inside stored prefixes. The
// first and last key of the stream bound the fuzzed [lo,hi] range.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 128, 1, 64, 200, 255, 7, 7, 135})
	// One key: a seven-level single-key chain above its value.
	f.Add([]byte{3, 5})
	// Keys sharing the top segment and diverging at levels 1 and 3, inside
	// the prefixes stored before them, then a delete of an absent key.
	f.Add([]byte{3, 13, 3, 9, 4, 13, 3, 11, 5, 13})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkOps(t, ops, func(a, b byte) uint16 { return uint16(a)<<8 | uint16(b) })
		checkOps(t, ops, func(a, b byte) uint64 { return uint64(a)<<56 | uint64(b)<<(8*(b%7)) })
	})
}

func checkOps[K keys.Key](t *testing.T, ops []byte, key func(a, b byte) K) {
	t.Helper()
	tr := NewDefault[K, int]()
	opt := NewOptimizedDefault[K, int]()
	ref := map[K]int{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := key(ops[i], ops[i+1])
		switch ops[i] % 3 {
		case 0, 1:
			_, existed := ref[k]
			if tr.Put(k, i) == existed || opt.Put(k, i) == existed {
				t.Fatalf("put %d", k)
			}
			ref[k] = i
		default:
			_, existed := ref[k]
			if tr.Delete(k) != existed || opt.Delete(k) != existed {
				t.Fatalf("delete %d", k)
			}
			delete(ref, k)
		}
	}
	if tr.Len() != len(ref) || opt.Len() != len(ref) {
		t.Fatalf("len %d/%d want %d", tr.Len(), opt.Len(), len(ref))
	}
	var lo, hi K
	if len(ops) >= 2 {
		lo, hi = key(ops[0], ops[1]), key(ops[len(ops)-2], ops[len(ops)-1])
	}
	for _, v := range []*Trie[K, int]{tr, opt} {
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		for k, want := range ref {
			if got, ok := v.Get(k); !ok || got != want {
				t.Fatalf("%s get %d", v.name(), k)
			}
		}
		checkOrdered(t, v, ref, lo, hi)
	}
}

// checkOrdered compares Ascend, Iter, Scan, IterRange, Min, Max and
// GetBatch with the sorted reference.
func checkOrdered[K keys.Key](t *testing.T, v *Trie[K, int], ref map[K]int, lo, hi K) {
	t.Helper()
	all := slices.Sorted(maps.Keys(ref))
	var inRange []K
	for _, k := range all {
		if lo <= k && k <= hi {
			inRange = append(inRange, k)
		}
	}
	expect := func(what string, want, got []K, vals []int) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s %s = %v, want %v", v.name(), what, got, want)
		}
		for i, k := range got {
			if vals[i] != ref[k] {
				t.Fatalf("%s %s: key %d value %d, want %d", v.name(), what, k, vals[i], ref[k])
			}
		}
	}
	visit := func(walk func(fn func(K, int) bool)) (ks []K, vs []int) {
		walk(func(k K, val int) bool {
			ks, vs = append(ks, k), append(vs, val)
			return true
		})
		return ks, vs
	}
	drain := func(it *Iterator[K, int]) (ks []K, vs []int) {
		for it.Next() {
			ks, vs = append(ks, it.Key()), append(vs, it.Value())
		}
		return ks, vs
	}
	ks, vs := visit(v.Ascend)
	expect("Ascend", all, ks, vs)
	ks, vs = drain(v.Iter())
	expect("Iter", all, ks, vs)
	ks, vs = visit(func(fn func(K, int) bool) { v.Scan(lo, hi, fn) })
	expect("Scan", inRange, ks, vs)
	ks, vs = drain(v.IterRange(lo, hi))
	expect("IterRange", inRange, ks, vs)

	minK, minV, minOK := v.Min()
	maxK, maxV, maxOK := v.Max()
	if minOK != (len(all) > 0) || maxOK != (len(all) > 0) {
		t.Fatalf("%s Min/Max ok = %v/%v with %d keys", v.name(), minOK, maxOK, len(all))
	}
	if len(all) > 0 {
		expect("Min", all[:1], []K{minK}, []int{minV})
		expect("Max", all[len(all)-1:], []K{maxK}, []int{maxV})
	}

	probes := append(slices.Clone(all), lo, hi, lo+1, hi-1)
	for _, k := range all {
		probes = append(probes, k+1)
	}
	vals, found := v.GetBatch(probes)
	for i, k := range probes {
		want, ok := ref[k]
		if found[i] != ok || vals[i] != want {
			t.Fatalf("%s GetBatch(%d) = (%d,%v), want (%d,%v)", v.name(), k, vals[i], found[i], want, ok)
		}
	}
}
