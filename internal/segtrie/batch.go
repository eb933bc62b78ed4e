package segtrie

import (
	"repro/internal/index"
	"repro/internal/keys"
)

// Batched lookups, routed through the shared level-wise engine
// (index.LevelWise) so the Seg-Trie exposes the same batch surface as the
// Seg-Tree and the B+-Tree. The engine's node handle carries the trie
// level alongside the node pointer: a probe's depth is not derivable from
// the node alone, and a node's stored prefix consumes a whole run of
// omitted levels in one step.

// Trie satisfies the module-wide index contract.
var _ index.Index[uint32, int] = (*Trie[uint32, int])(nil)

// trieCur is one probe group's descent position.
type trieCur[V any] struct {
	n     *node[V]
	level int32 // level of n's first segment (its stored prefix, if any)
}

// GetBatch looks up many keys with the shared level-wise batch descent:
// probes are sorted, duplicates share one descent, and every 17-ary node
// search runs once per probe group. One engine step consumes a node's
// stored prefix plus its 17-ary search, so groups advance node by node;
// after lazy expansion value nodes sit at different depths and each group
// resolves as soon as it reaches one. A missing partial key terminates
// the group's descent above leaf level — the trie's comparison-saving
// early exit (§4) carries over to the batched path. It returns the values
// and a parallel found mask, in input order.
func (t *Trie[K, V]) GetBatch(ks []K) ([]V, []bool) {
	us := make([]uint64, len(ks))
	for i, k := range ks {
		us[i] = keys.OrderedBits(k)
	}
	last := t.levels - 1
	// locate matches c's stored prefix and searches its partial keys for
	// probe u, returning the hit position and the level it sits on.
	locate := func(c trieCur[V], u uint64) (idx, level int, ok bool) {
		level = int(c.level)
		for _, p := range c.n.prefix {
			if t.segment(u, level) != p {
				return 0, level, false
			}
			level++
		}
		idx, ok = t.find(c.n, t.segment(u, level), nil)
		return idx, level, ok
	}
	return index.LevelWise[K, V](ks, trieCur[V]{t.root, 0},
		func(c trieCur[V]) bool { return int(c.level)+len(c.n.prefix) == last },
		func(c trieCur[V], i int) trieCur[V] {
			idx, level, ok := locate(c, us[i])
			if !ok {
				return trieCur[V]{}
			}
			return trieCur[V]{c.n.children[idx], int32(level + 1)}
		},
		func(c trieCur[V], i int) (v V, ok bool) {
			if idx, _, hit := locate(c, us[i]); hit {
				return c.n.vals[idx], true
			}
			return v, false
		})
}

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Trie[K, V]) ContainsBatch(ks []K) []bool {
	_, found := t.GetBatch(ks)
	return found
}

// IndexStats summarizes the trie in the structure-independent terms of
// the index layer; Stats retains the trie-specific breakdown.
func (t *Trie[K, V]) IndexStats() index.Stats {
	s := t.Stats()
	return index.Stats{
		Keys:           s.Keys,
		Height:         s.Height,
		Nodes:          s.Nodes,
		MemoryBytes:    s.MemoryBytes,
		KeyMemoryBytes: s.KeyMemoryBytes,
	}
}
