package segtrie

import "repro/internal/shape"

// plainNodeBytes is what one omitted level would cost as a materialized
// plain-trie node: a single-key 17-ary tree stores 16 one-byte slots
// (one full register, §3.3-replenished) plus one eight-byte child
// pointer. The optimized trie stores one prefix byte instead, so each
// omitted level saves plainNodeBytes − 1 bytes.
const plainNodeBytes = 16 + 8

// Shape implements shape.Shaper. Trie nodes store one-byte partial keys
// in 17-ary trees, so slots cost one byte and a register holds sixteen
// partial keys. Shape levels are node depths: in the plain trie one per
// trie level (height is invariant at r = m/8, §4); in the optimized trie
// lazy expansion makes the stored height much smaller than r, and the §4
// omission shows up as OmittedLevels/PrefixBytes with the measured byte
// saving against materializing those levels as plain single-key nodes.
// The byte split reproduces Stats' accounting (TotalBytes ==
// IndexStats().MemoryBytes): real partial keys, replenishment pads and
// prefix bytes cost one byte, child and value pointers eight bytes.
func (t *Trie[K, V]) Shape() shape.Report {
	rep := shape.New(t.name())
	rep.Keys = t.size
	deepest := 0
	t.each(func(n *node[V], depth, _ int) {
		deepest = max(deepest, depth+1)
		nk, stored := n.kt.Len(), n.kt.Stored()
		rep.Node(depth, nk, stored)
		rep.Register(n.kt.RegisterStats())
		rep.KeyBytes += int64(nk + len(n.prefix))
		rep.PaddingBytes += int64(stored - nk)
		rep.ReplenishedSlots += stored - nk
		rep.OmittedLevels += len(n.prefix)
		rep.PrefixBytes += len(n.prefix)
		rep.PointerBytes += int64(len(n.children)+len(n.vals)) * 8
	})
	rep.Levels = t.height(deepest)
	rep.OmittedSavingsBytes = int64(rep.OmittedLevels) * (plainNodeBytes - 1)
	return rep.Finalize()
}
