// Package kary implements the paper's k-ary search on linearized k-ary
// search trees (§2.2, §3.2, §3.3).
//
// A sorted list of keys is transformed into a "linearized" k-ary search
// tree: the k−1 separator keys of every tree node become 16 consecutive
// bytes, so one emulated 128-bit SIMD load fetches a whole node. Two
// linearizations are provided — breadth-first (paper Formula 1, searched by
// Algorithm 5) and depth-first (Formula 2, Algorithm 4).
//
// Arbitrary key counts (§3.3) are supported by replenishing incomplete
// nodes with the largest key S_max. The breadth-first layout stores a
// complete k-ary tree — all levels full except the last, which is filled
// left to right — which reproduces the stored key counts N_S of the
// paper's Table 3 exactly (256, 408, 344, 242 for the four data types).
// The depth-first layout keeps the perfect-tree shape required by
// Algorithm 4's uniform subtree strides, replenishing interior holes and
// truncating trailing pad-only nodes.
//
// Appending a new maximum (§3.2's continuous filling) moves no key: it
// writes the key to its slot and refreshes only the pads that must equal
// the new S_max. In the depth-first layout those pads are the separators
// at or right of the descent in the nodes on the new key's root-to-slot
// path — at most (k−1)·r slots, 10 for 64-bit keys.
//
// The search result is the paper's contract: the index, in the original
// sorted order, of the first key strictly greater than the search key —
// identical to what binary search on the sorted list returns, so a Seg-Tree
// can navigate its unchanged pointer array with it.
package kary

import (
	"fmt"
	"sort"

	"repro/internal/keys"
	"repro/internal/simd"
)

// Layout selects the linearization order of a k-ary search tree.
type Layout int

const (
	// BreadthFirst stores tree levels contiguously, root level first
	// (paper Formula 1, searched by Algorithm 5).
	BreadthFirst Layout = iota
	// DepthFirst stores each node followed by its subtrees left to right
	// (paper Formula 2, searched by Algorithm 4).
	DepthFirst
)

// String returns the paper's name for the layout.
func (l Layout) String() string {
	switch l {
	case BreadthFirst:
		return "breadth-first"
	case DepthFirst:
		return "depth-first"
	default:
		return "unknown"
	}
}

// Layouts lists both linearizations, for experiments that sweep them.
var Layouts = []Layout{BreadthFirst, DepthFirst}

// Tree is a linearized k-ary search tree over a sorted list of keys — the
// key storage of one Seg-Tree node. K (as in "k-ary") is fixed by the key
// type: k−1 keys fill one 128-bit register (paper Table 2).
//
// The struct fits one 64-byte cache line for every key type: it is
// embedded by value in every tree node, and a search reads its header
// before the first key.
type Tree[K keys.Key] struct {
	data   []byte // packed realigned lanes, stored × key width bytes
	n      int    // real key count
	m      int    // breadth-first only: number of last-level nodes
	stored int    // stored key slots, multiple of k−1 (incl. replenishment)
	smax   K      // largest real key; padding value (§3.3)

	r      uint8 // levels of the k-ary search tree
	layout uint8 // the Layout
	// Geometry cached at build time for the maintenance paths; the
	// search loops take it from K, where it is a constant.
	w     uint8 // key width in bytes
	k     uint8 // k-ary order (lanes+1)
	lanes uint8 // keys per SIMD register (k−1)
}

// Prepare broadcasts the search key v into a reusable SIMD search
// register. A tree descent (Seg-Tree, Seg-Trie) prepares once and passes
// the register to SearchPT/LookupPT at every node, hoisting the loop-
// invariant work out of the path — the same hoisting real SSE code does.
func Prepare[K keys.Key](v K) simd.Search {
	w := keys.Width[K]()
	return simd.NewSearch(w, keys.OrderedBits(v))
}

// pow returns k^e for small non-negative e.
func pow(k, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= k
	}
	return p
}

// levels returns the minimal number of k-ary tree levels r with k^r−1 ≥ n.
func levels(n, k int) int {
	r, c := 0, 1
	for c-1 < n {
		c *= k
		r++
	}
	return r
}

// Build linearizes a sorted list of distinct keys into a k-ary search tree
// with the given layout. The input slice is not retained. Build is the
// Must-style wrapper over BuildChecked: it panics if the keys are not
// strictly ascending (tree nodes hold distinct keys), for callers building
// from literals or already-validated data. New code handling untrusted
// input should call BuildChecked.
func Build[K keys.Key](sorted []K, layout Layout) *Tree[K] {
	t, err := BuildChecked(sorted, layout)
	if err != nil {
		panic(err.Error()) //simdtree:allowpanic Must-style wrapper; BuildChecked is the error-returning form
	}
	return t
}

// BuildChecked is Build returning an error wrapping keys.ErrUnsorted
// instead of panicking when the input is not strictly ascending.
func BuildChecked[K keys.Key](sorted []K, layout Layout) (*Tree[K], error) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			return nil, fmt.Errorf("kary: %w at index %d", keys.ErrUnsorted, i)
		}
	}
	return BuildUnchecked(sorted, layout), nil
}

// BuildUnchecked is Build without the sortedness check, for callers (the
// Seg-Tree) that maintain sorted keys themselves. Any layout other than
// BreadthFirst builds, and reports, DepthFirst.
func BuildUnchecked[K keys.Key](sorted []K, layout Layout) *Tree[K] {
	if layout != BreadthFirst {
		layout = DepthFirst
	}
	k := keys.K[K]()
	w := keys.Width[K]()
	n := len(sorted)
	t := &Tree[K]{layout: uint8(layout), n: n, w: uint8(w), k: uint8(k), lanes: uint8(k - 1)}
	if n == 0 {
		return t
	}
	r := levels(n, k)
	t.r = uint8(r)
	t.smax = sorted[n-1]

	if layout == BreadthFirst {
		// Complete tree: upper r−1 levels are full (k^(r−1)−1 keys), the
		// last level holds m left-packed nodes.
		upper := pow(k, r-1) - 1
		t.m = (n - upper + k - 2) / (k - 1)
		t.stored = upper + t.m*(k-1)
		t.data = make([]byte, t.stored*w)
		for p := 0; p < t.stored; p++ {
			keys.PutAt(t.data, p, t.smax)
		}
		for s := 0; s < n; s++ {
			keys.PutAt(t.data, posComplete(s, k, r, t.m), sorted[s])
		}
		return t
	}

	// Depth-first: perfect-tree positions with interior replenishment,
	// truncated at the node boundary after the last real key. One in-order
	// walk of the geometry writes the keys into their slots.
	t.stored = storedDF(n, k, r)
	t.data = make([]byte, t.stored*w)
	for p := 0; p < t.stored; p++ {
		keys.PutAt(t.data, p, t.smax)
	}
	walkDF(k, r, n, func(s, slot int) { keys.PutAt(t.data, slot, sorted[s]) })
	return t
}

// Layout reports the linearization order of the tree.
func (t *Tree[K]) Layout() Layout { return Layout(t.layout) }

// Len reports the number of real keys.
func (t *Tree[K]) Len() int { return t.n }

// Levels reports the number of k-ary search tree levels r (the number of
// SIMD comparisons one search performs).
func (t *Tree[K]) Levels() int { return int(t.r) }

// Stored reports the number of stored key slots including replenishment —
// the paper's N_S (Table 3) for the breadth-first layout.
func (t *Tree[K]) Stored() int { return t.stored }

// MemoryBytes reports the key storage size in bytes.
func (t *Tree[K]) MemoryBytes() int { return len(t.data) }

// Max returns the largest real key; ok is false for an empty tree.
func (t *Tree[K]) Max() (max K, ok bool) {
	if t.n == 0 {
		return max, false
	}
	return t.smax, true
}

// pos maps a sorted position to its storage slot under the tree's layout.
func (t *Tree[K]) pos(s int) int {
	if t.Layout() == DepthFirst {
		return posDF(s, int(t.k), int(t.r))
	}
	return posComplete(s, int(t.k), int(t.r), t.m)
}

// At returns the key at the given index of the original sorted order, by
// applying the layout's position transformation.
func (t *Tree[K]) At(s int) K {
	if s < 0 || s >= t.n {
		panic(fmt.Sprintf("kary: index %d out of range [0,%d)", s, t.n)) //simdtree:allowpanic index contract, mirrors built-in slice indexing
	}
	return keys.GetAt[K](t.data, t.pos(s))
}

// Keys delinearizes the tree back into its sorted key list.
func (t *Tree[K]) Keys() []K {
	out := make([]K, t.n)
	if t.Layout() == DepthFirst {
		walkDF(int(t.k), int(t.r), t.n, func(s, slot int) { out[s] = keys.GetAt[K](t.data, slot) })
		return out
	}
	for s := 0; s < t.n; s++ {
		out[s] = keys.GetAt[K](t.data, t.pos(s))
	}
	return out
}

// Linearized returns the stored slot values in storage order, including
// replenishment pads — the layout the SIMD loads see. Used by inspection
// tools and tests.
func (t *Tree[K]) Linearized() []K {
	return keys.Unpack[K](t.data)
}

// Validate checks the structural invariants: delinearized keys strictly
// ascending, stored a multiple of k−1, maximum consistent, and every slot
// that holds no real key a pad equal to S_max (§3.3).
func (t *Tree[K]) Validate() error {
	k := keys.K[K]()
	if t.w == 0 {
		return fmt.Errorf("kary: tree not constructed with Build")
	}
	if t.n == 0 {
		if t.stored != 0 || len(t.data) != 0 {
			return fmt.Errorf("kary: empty tree with storage")
		}
		return nil
	}
	if t.stored%(k-1) != 0 {
		return fmt.Errorf("kary: stored %d not a multiple of k-1=%d", t.stored, k-1)
	}
	if len(t.data) != t.stored*int(t.w) {
		return fmt.Errorf("kary: %d data bytes for %d stored slots", len(t.data), t.stored)
	}
	ks := t.Keys()
	if !sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] }) {
		return fmt.Errorf("kary: delinearized keys not sorted")
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] == ks[i] {
			return fmt.Errorf("kary: duplicate key at index %d", i)
		}
	}
	if ks[len(ks)-1] != t.smax {
		return fmt.Errorf("kary: smax mismatch")
	}
	for slot, real := range t.realSlots() {
		if !real && keys.GetAt[K](t.data, slot) != t.smax {
			return fmt.Errorf("kary: stale pad at slot %d", slot)
		}
	}
	return nil
}
