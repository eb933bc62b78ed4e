package kary

import (
	"repro/internal/bitmask"
	"repro/internal/keys"
)

// padEvaluator is the evaluator used for internal maintenance searches;
// Popcount is the paper's overall winner (§5.2).
const padEvaluator = bitmask.Popcount

// Data-manipulation operations (§3.2). The general case re-sorts and
// re-linearizes the keys — the paper's naive approach, acceptable because
// the Seg-Tree targets read-mostly workloads. Continuous filling with
// ascending keys takes the paper's fast path: the new key is copied
// directly to its slot and no existing key moves, because the slot
// transformation depends only on the node geometry (k, r, m), which is
// unchanged while pad slots remain. Besides the new key, an append
// rewrites only the pads that must follow S_max (§3.3).

// Insert adds x to the tree, reporting whether it was absent. Appending a
// new maximum writes at most (k−1)·r slots; any other insert rebuilds the
// linearized storage.
func (t *Tree[K]) Insert(x K) bool {
	// A key above S_max cannot be present, so the append test runs first
	// and only the rebuild path pays for the duplicate search.
	if t.n > 0 && x > t.smax && levels(t.n+1, int(t.k)) == int(t.r) {
		if t.Layout() == DepthFirst {
			t.appendDF(x)
			return true
		}
		if t.n < t.stored {
			t.appendBF(x)
			return true
		}
	}
	if t.n > 0 {
		if _, found := t.Lookup(x, padEvaluator); found {
			return false
		}
	}
	ks := t.Keys()
	pos := UpperBound(ks, x)
	ks = append(ks, x)
	copy(ks[pos+1:], ks[pos:])
	ks[pos] = x
	t.rebuild(ks)
	return true
}

// appendBF writes a new maximum into the next pad slot of a breadth-first
// tree with unchanged geometry and refreshes the remaining pads, which must
// always equal S_max (§3.3).
func (t *Tree[K]) appendBF(x K) {
	k := keys.K[K]()
	keys.PutAt(t.data, posComplete(t.n, k, int(t.r), t.m), x)
	for s := t.n + 1; s < t.stored; s++ {
		keys.PutAt(t.data, posComplete(s, k, int(t.r), t.m), x)
	}
	t.smax = x
	t.n++
}

// appendDF writes a new maximum into its fixed depth-first slot —
// positions depend only on (k, r), so no existing key moves. The only pads
// inside the truncated storage are the separators at or right of the
// descent in each node on the new key's root-to-slot path: every subtree
// right of that path starts past the last real key. So the walk down that
// path writes x into those separators, the new key's own slot included,
// growing the storage to cover path nodes past its end.
func (t *Tree[K]) appendDF(x K) {
	k, lanes := int(t.k), int(t.lanes)
	pos := 0
	rem := t.n
	childCap := pow(k, int(t.r)) / k
	for {
		c := (rem + 1) / childCap
		sep := (rem+1)%childCap == 0
		if sep {
			c-- // x lands on separator c of this node
		}
		t.growDF(pos + lanes)
		for i := c; i < lanes; i++ {
			keys.PutAt(t.data, pos+i, x)
		}
		if sep {
			break
		}
		pos += lanes + c*(childCap-1)
		rem -= c * childCap
		childCap /= k
	}
	t.smax = x
	t.n++
}

// growDF extends the depth-first storage to need slots. The backing array
// grows geometrically, capped at the perfect-tree size k^r−1, so a run of
// appends reallocates O(log) times; len(data) stays stored × width. The
// caller overwrites every slot it adds.
func (t *Tree[K]) growDF(need int) {
	if need <= t.stored {
		return
	}
	w := int(t.w)
	if need*w > cap(t.data) {
		c := max(2*cap(t.data), need*w)
		c = min(c, (pow(int(t.k), int(t.r))-1)*w)
		grown := make([]byte, len(t.data), c)
		copy(grown, t.data)
		t.data = grown
	}
	t.data = t.data[:need*w]
	t.stored = need
}

// Delete removes x from the tree, reporting whether it was present. It
// always rebuilds the linearized storage ("every random deletion leads to
// a reordering operation", §3.2).
func (t *Tree[K]) Delete(x K) bool {
	if t.n == 0 {
		return false
	}
	idx, found := t.Lookup(x, padEvaluator)
	if !found {
		return false
	}
	ks := t.Keys()
	copy(ks[idx-1:], ks[idx:])
	t.rebuild(ks[:len(ks)-1])
	return true
}

// Contains reports whether x is present.
func (t *Tree[K]) Contains(x K) bool {
	_, found := t.Lookup(x, padEvaluator)
	return found
}

// rebuild replaces the tree contents with a fresh linearization of sorted.
func (t *Tree[K]) rebuild(sorted []K) {
	*t = *BuildUnchecked(sorted, t.Layout())
}
