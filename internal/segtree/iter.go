package segtree

import (
	"repro/internal/kary"
	"repro/internal/keys"
)

// Iterator is a stateful cursor over the sequence set. It starts
// positioned before the first item; Next advances and reports whether an
// item is available. Mutating the tree invalidates open iterators.
//
// The cursor reads node keys through the layout's position transformation,
// so iteration order is key order even though the storage is linearized.
type Iterator[K keys.Key, V any] struct {
	leaf *node[K, V]
	idx  int
	hi   K
	all  bool
}

// Iter returns a cursor over all items in ascending key order.
func (t *Tree[K, V]) Iter() *Iterator[K, V] {
	return &Iterator[K, V]{leaf: t.first, idx: -1, all: true}
}

// IterRange returns a cursor over items with lo ≤ key ≤ hi.
func (t *Tree[K, V]) IterRange(lo, hi K) *Iterator[K, V] {
	if lo > hi {
		return &Iterator[K, V]{}
	}
	ev := t.cfg.Evaluator
	search := kary.Prepare(lo)
	n := t.root
	for !n.leaf() {
		n = n.children[n.kt.SearchPT(lo, search, ev, nil)]
	}
	i, found := n.kt.LookupPT(lo, search, ev, nil)
	if found {
		i--
	}
	return &Iterator[K, V]{leaf: n, idx: i - 1, hi: hi}
}

// Next advances the cursor. It returns false when the iteration is
// exhausted.
func (it *Iterator[K, V]) Next() bool {
	if it.leaf == nil {
		return false
	}
	it.idx++
	for it.idx >= it.leaf.kt.Len() {
		it.leaf = it.leaf.next
		it.idx = 0
		if it.leaf == nil {
			return false
		}
	}
	if !it.all && it.leaf.kt.At(it.idx) > it.hi {
		it.leaf = nil
		return false
	}
	return true
}

// Key returns the key at the cursor; valid only after Next returned true.
func (it *Iterator[K, V]) Key() K { return it.leaf.kt.At(it.idx) }

// Value returns the value at the cursor; valid only after Next returned
// true.
func (it *Iterator[K, V]) Value() V { return it.leaf.vals[it.idx] }
