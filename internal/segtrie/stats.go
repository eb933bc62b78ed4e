package segtrie

import "fmt"

// Stats summarizes the trie's shape and memory footprint.
type Stats struct {
	Nodes int
	// NodesPerLevel counts nodes by the trie level their partial keys
	// discriminate.
	NodesPerLevel  []int
	Keys           int
	StoredKeySlots int
	// FilledLevels counts the levels below the longest common prefix of
	// all stored keys — the "depth of the tree" of the paper's Figure 11.
	FilledLevels int
	// OmittedLevels counts the stored prefix bytes: levels whose node
	// search the optimized trie skips. It is 0 in the plain trie.
	OmittedLevels int
	// Height is the number of node searches a worst-case lookup performs:
	// the invariant r = m/8 in the plain trie (§4), the deepest stored
	// root-to-value path in the optimized one.
	Height int
	// MemoryBytes follows the paper's accounting: stored partial-key
	// slots and prefix bytes cost one byte each, child and value pointers
	// eight bytes.
	MemoryBytes int64
	// KeyMemoryBytes counts partial-key and prefix storage only (one byte
	// per stored slot) — the basis of the paper's 8× memory-reduction
	// claim.
	KeyMemoryBytes int64
}

// each calls fn for every node in depth-first pre-order with its depth
// (the nodes above it) and the level its partial keys discriminate.
func (t *Trie[K, V]) each(fn func(n *node[V], depth, level int)) {
	var walk func(n *node[V], depth, level int)
	walk = func(n *node[V], depth, level int) {
		level += len(n.prefix)
		fn(n, depth, level)
		for _, c := range n.children {
			walk(c, depth+1, level+1)
		}
	}
	if t.root != nil {
		walk(t.root, 0, 0)
	}
}

// height is the number of node searches a worst-case lookup performs,
// given the deepest stored root-to-value path: the plain trie keeps its
// invariant height r even when empty.
func (t *Trie[K, V]) height(deepest int) int {
	if t.optimized {
		return deepest
	}
	return t.levels
}

// Stats computes shape and memory statistics by walking the trie.
func (t *Trie[K, V]) Stats() Stats {
	s := Stats{NodesPerLevel: make([]int, t.levels)}
	deepest := 0
	t.each(func(n *node[V], depth, level int) {
		s.Nodes++
		s.NodesPerLevel[level]++
		s.StoredKeySlots += n.kt.Stored()
		s.OmittedLevels += len(n.prefix)
		keyBytes := int64(n.kt.MemoryBytes() + len(n.prefix))
		s.KeyMemoryBytes += keyBytes
		s.MemoryBytes += keyBytes + int64(len(n.children)+len(n.vals))*8
		if level == t.levels-1 {
			s.Keys += n.kt.Len()
			deepest = max(deepest, depth+1)
		}
	})
	s.Height = t.height(deepest)
	if t.size > 0 {
		// The common prefix is the run of stored prefixes and single-key
		// inner nodes the root starts with.
		common := 0
		for n := t.root; ; n = n.children[0] {
			common += len(n.prefix)
			if n.kt.Len() != 1 || common == t.levels-1 {
				break
			}
			common++
		}
		s.FilledLevels = t.levels - common
	}
	return s
}

// Validate checks the structural invariants: per-node kary invariants,
// level arithmetic (every root-to-value path consumes exactly Levels
// segments), children/values parallel to the partial keys, no empty node
// but the plain trie's root, and a size counter that matches the stored
// keys. The plain trie stores no prefixes; in the optimized trie inner
// nodes hold ≥ 2 keys and the empty trie has no root.
func (t *Trie[K, V]) Validate() error {
	if t.root == nil && !t.optimized {
		return fmt.Errorf("segtrie: plain trie without a root")
	}
	count := 0
	var err error
	t.each(func(n *node[V], _, level int) {
		if err != nil {
			return
		}
		if kerr := n.kt.Validate(); kerr != nil {
			err = fmt.Errorf("segtrie: level %d: %w", level, kerr)
			return
		}
		nk := n.kt.Len()
		switch {
		case len(n.prefix) > 0 && !t.optimized:
			err = fmt.Errorf("segtrie: plain trie node at level %d stores a prefix", level)
		case level >= t.levels:
			err = fmt.Errorf("segtrie: node at level %d of %d", level, t.levels)
		case nk == 0 && (n != t.root || t.optimized):
			err = fmt.Errorf("segtrie: empty node at level %d", level)
		case level == t.levels-1 && (len(n.vals) != nk || n.children != nil):
			err = fmt.Errorf("segtrie: level %d: %d keys but %d values and %d children", level, nk, len(n.vals), len(n.children))
		case level < t.levels-1 && (len(n.children) != nk || n.vals != nil):
			err = fmt.Errorf("segtrie: level %d: %d keys but %d children and %d values", level, nk, len(n.children), len(n.vals))
		case level < t.levels-1 && t.optimized && nk < 2:
			err = fmt.Errorf("segtrie: inner node with %d keys not compressed away", nk)
		case level == t.levels-1:
			count += nk
		}
	})
	if err == nil && count != t.size {
		err = fmt.Errorf("segtrie: size %d but %d keys present", t.size, count)
	}
	return err
}
