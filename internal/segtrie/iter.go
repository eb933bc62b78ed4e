package segtrie

import (
	"math"
	"slices"

	"repro/internal/keys"
)

// Ordered access. Every walk folds each node's stored prefix into the
// ordered bits accumulated above it; the prefixes are empty in the plain
// trie.

// Min returns the smallest key and its value; ok is false when empty.
func (t *Trie[K, V]) Min() (k K, v V, ok bool) { return t.edge(true) }

// Max returns the largest key and its value; ok is false when empty.
func (t *Trie[K, V]) Max() (k K, v V, ok bool) { return t.edge(false) }

// edge follows the first (or last) partial key of every node down to a
// value.
func (t *Trie[K, V]) edge(first bool) (k K, v V, ok bool) {
	if t.size == 0 {
		return k, v, false
	}
	var u uint64
	n := t.root
	for level := 0; ; level++ {
		for _, p := range n.prefix {
			u = u<<8 | uint64(p)
			level++
		}
		i := 0
		if !first {
			i = n.kt.Len() - 1
		}
		u = u<<8 | uint64(n.kt.At(i))
		if level == t.levels-1 {
			return keys.FromOrderedBits[K](u), n.vals[i], true
		}
		n = n.children[i]
	}
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (t *Trie[K, V]) Ascend(fn func(K, V) bool) {
	if t.size > 0 {
		t.scan(t.root, 0, 0, 0, math.MaxUint64, fn)
	}
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order
// until fn returns false, pruning subtrees outside the range.
func (t *Trie[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi || t.size == 0 {
		return
	}
	t.scan(t.root, 0, 0, keys.OrderedBits(lo), keys.OrderedBits(hi), fn)
}

func (t *Trie[K, V]) scan(n *node[V], level int, prefix, lo, hi uint64, fn func(K, V) bool) bool {
	for _, p := range n.prefix {
		prefix = prefix<<8 | uint64(p)
		level++
	}
	rem := uint(8 * (t.levels - 1 - level))
	for i, pk := range n.kt.Keys() {
		u := prefix<<8 | uint64(pk)
		// The subtree below u covers [u<<rem, (u<<rem)|maxFill].
		min := u << rem
		max := min | (uint64(1)<<rem - 1)
		if max < lo {
			continue
		}
		if min > hi {
			return true
		}
		if level == t.levels-1 {
			if !fn(keys.FromOrderedBits[K](u), n.vals[i]) {
				return false
			}
			continue
		}
		if !t.scan(n.children[i], level+1, u, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Iterator is a stateful cursor over a Trie in ascending key order. A
// trie has no leaf chain, so the cursor keeps an explicit descent stack of
// (node, position) frames, each carrying the ordered bits of the segments
// above its node's level. Mutating the trie invalidates open iterators.
type Iterator[K keys.Key, V any] struct {
	t     *Trie[K, V]
	stack []iterFrame[V]
	hi    uint64
	all   bool
	done  bool
}

type iterFrame[V any] struct {
	n      *node[V]
	idx    int
	ks     []uint8
	level  int    // the level n's partial keys discriminate
	prefix uint64 // ordered bits of all segments above level
}

// Iter returns a cursor over all items.
func (t *Trie[K, V]) Iter() *Iterator[K, V] {
	it := &Iterator[K, V]{t: t, all: true, done: t.size == 0}
	if !it.done {
		it.push(t.root, 0, 0)
	}
	return it
}

// IterRange returns a cursor over items with lo ≤ key ≤ hi.
func (t *Trie[K, V]) IterRange(lo, hi K) *Iterator[K, V] {
	it := &Iterator[K, V]{t: t, hi: keys.OrderedBits(hi), done: lo > hi || t.size == 0}
	if !it.done {
		it.push(t.root, 0, 0)
		it.seek(keys.OrderedBits(lo))
	}
	return it
}

// push appends a frame for n, whose first segment (its stored prefix, if
// any) sits at level, folding the prefix into the accumulated bits.
func (it *Iterator[K, V]) push(n *node[V], level int, prefix uint64) {
	for _, p := range n.prefix {
		prefix = prefix<<8 | uint64(p)
		level++
	}
	it.stack = append(it.stack, iterFrame[V]{n: n, idx: -1, ks: n.kt.Keys(), level: level, prefix: prefix})
}

// seek positions the stack just before the first key ≥ lo.
func (it *Iterator[K, V]) seek(lo uint64) {
	for {
		f := &it.stack[len(it.stack)-1]
		// Compare the node's stored prefix against lo's segments.
		start := f.level - len(f.n.prefix)
		for d, p := range f.n.prefix {
			if seg := it.t.segment(lo, start+d); p != seg {
				if p < seg {
					// Whole subtree < lo: exhaust this frame so the next
					// advance pops it and the parent resumes at the next
					// sibling.
					f.idx = len(f.ks) - 1
				}
				// Otherwise the whole subtree is > lo: iterate it from
				// the start.
				return
			}
		}
		pk := it.t.segment(lo, f.level)
		i, hit := slices.BinarySearch(f.ks, pk) // first position with partial key ≥ pk
		if !hit || f.level == it.t.levels-1 {
			// Everything from position i on is ≥ lo (or the node is
			// exhausted and the parent resumes at the next sibling).
			f.idx = i - 1
			return
		}
		// Exact partial-key match above the last level: descend into
		// child i; when its subtree is exhausted the pop resumes at
		// sibling i+1.
		f.idx = i
		it.push(f.n.children[i], f.level+1, f.prefix<<8|uint64(pk))
	}
}

// Next advances the cursor. It returns false when the iteration is
// exhausted.
func (it *Iterator[K, V]) Next() bool {
	if it.done {
		return false
	}
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		f.idx++
		if f.idx >= len(f.ks) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		if f.level == it.t.levels-1 {
			if !it.all && it.currentBits() > it.hi {
				it.done = true
				return false
			}
			return true
		}
		it.push(f.n.children[f.idx], f.level+1, f.prefix<<8|uint64(f.ks[f.idx]))
	}
	it.done = true
	return false
}

// currentBits reassembles the ordered bit pattern of the cursor key.
func (it *Iterator[K, V]) currentBits() uint64 {
	f := &it.stack[len(it.stack)-1]
	return f.prefix<<8 | uint64(f.ks[f.idx])
}

// Key returns the key at the cursor; valid only after Next returned true.
func (it *Iterator[K, V]) Key() K {
	return keys.FromOrderedBits[K](it.currentBits())
}

// Value returns the value at the cursor; valid only after Next returned
// true.
func (it *Iterator[K, V]) Value() V {
	f := it.stack[len(it.stack)-1]
	return f.n.vals[f.idx]
}
