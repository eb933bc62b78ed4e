// Package segtrie implements the paper's Segment-Trie (§4): a prefix
// B-Tree (trie) over m-bit keys split into 8-bit segments, giving
// r = m/8 levels. Every node holds up to 256 partial keys stored as a
// linearized 17-ary search tree, so one inner-node search costs exactly
// two SIMD comparisons regardless of the key width — this is how the trie
// transfers the 8-bit k-ary search performance to 64-bit keys.
//
// Keys are split most-significant segment first on their order-preserving
// bit pattern (keys.OrderedBits), so trie order equals key order and the
// structure supports ordered iteration besides point lookups. The three
// §4 fast paths are implemented: an empty node terminates the search, a
// single-key node is compared directly, and a completely full node indexes
// its pointer array like a hash table.
//
// One Trie type serves both of the paper's variants; the variant is fixed
// by the constructor. New builds the plain Seg-Trie, which materializes
// one node per level. NewOptimized builds the optimized Seg-Trie, which
// omits every level that would hold a single partial key and stores its
// segment as a prefix in the node below (lazy expansion). Every descent
// walks the stored prefixes, which are always empty in the plain trie;
// only Put (how a new key's path is built) and Delete (re-compressing a
// node left with one child) differ between the variants.
package segtrie

import (
	"slices"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterizes a Seg-Trie.
type Config struct {
	// Layout selects the per-node linearization of the 17-ary search
	// trees.
	Layout kary.Layout
	// Evaluator selects the bitmask evaluation algorithm.
	Evaluator bitmask.Evaluator
}

// DefaultConfig uses the paper's preferred settings: breadth-first node
// layout and popcount evaluation.
func DefaultConfig() Config {
	return Config{Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount}
}

// Trie is a Seg-Trie mapping distinct keys of integer type K to values of
// type V. The number of levels is fixed at Width(K) — the paper's
// invariant-height property. The zero value is not usable; construct with
// New or NewOptimized.
type Trie[K keys.Key, V any] struct {
	cfg  Config
	root *node[V] // the plain trie keeps an empty root; the optimized one is nil when empty
	size int
	// levels is the nominal height r = m/8; the optimized trie's stored
	// structure may be much shallower.
	levels int
	// optimized selects level omission (§4, last paragraphs).
	optimized bool
}

// node discriminates one trie level after matching its stored prefix.
// An inner node has one child per partial key; a last-level node has one
// value per partial key. Children and values are kept in partial-key
// order, indexed by the position the 17-ary search returns. In the
// optimized trie an inner node holds ≥ 2 partial keys (otherwise it would
// be compressed away).
type node[V any] struct {
	prefix   []uint8 // segments of the omitted levels above this node's level
	kt       kary.Tree[uint8]
	children []*node[V]
	vals     []V
}

// New returns an empty plain Seg-Trie: one node per level.
func New[K keys.Key, V any](cfg Config) *Trie[K, V] {
	return &Trie[K, V]{
		cfg:    cfg,
		root:   &node[V]{kt: *kary.BuildUnchecked[uint8](nil, cfg.Layout)},
		levels: keys.Width[K](),
	}
}

// NewDefault returns an empty plain trie with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Trie[K, V] {
	return New[K, V](DefaultConfig())
}

// NewOptimized returns an empty optimized Seg-Trie (§4, last paragraphs):
// tree levels that would hold only one partial key are omitted, following
// the expanding-tries idea of Boehm et al. and the lazy expansion of Leis
// et al. The omitted segments are stored as a prefix inside the node
// below them, so a lookup compares a whole run of omitted levels with
// plain byte comparisons and performs the 17-ary SIMD search only on
// levels that actually distinguish keys. For the paper's favourite
// workload — consecutive tuple IDs — this collapses a 64-bit trie to one
// or two levels and yields the constant ≈14× speedup of Figure 11.
func NewOptimized[K keys.Key, V any](cfg Config) *Trie[K, V] {
	return &Trie[K, V]{cfg: cfg, levels: keys.Width[K](), optimized: true}
}

// NewOptimizedDefault returns an empty optimized trie with DefaultConfig.
func NewOptimizedDefault[K keys.Key, V any]() *Trie[K, V] {
	return NewOptimized[K, V](DefaultConfig())
}

// Len reports the number of stored keys.
func (t *Trie[K, V]) Len() int { return t.size }

// Levels reports the nominal trie height r = m/L (§4: invariant,
// independent of the number of stored keys).
func (t *Trie[K, V]) Levels() int { return t.levels }

// Config returns the trie's configuration.
func (t *Trie[K, V]) Config() Config { return t.cfg }

// name is the variant's structure name in traces and shape reports.
func (t *Trie[K, V]) name() string {
	if t.optimized {
		return "opt-segtrie"
	}
	return "segtrie"
}

// The untraced Get descent is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Trie\.(Get|find|segment)$

// segment extracts the 8-bit partial key of level from the
// order-preserving bit pattern u.
//
//simdtree:hotpath
func (t *Trie[K, V]) segment(u uint64, level int) uint8 {
	return uint8(u >> (8 * uint(t.levels-1-level)))
}

// find locates pk inside n, recording into tr when non-nil. On a hit,
// idx is the position of pk's child or value; on a miss, idx is the
// insertion position. It applies the §4 fast paths: a single-key node is
// compared directly and a full node is indexed without any search.
//
//simdtree:hotpath
func (t *Trie[K, V]) find(n *node[V], pk uint8, tr *trace.Trace) (idx int, ok bool) {
	// The general path's node visit is counted inside kt.LookupPT; the
	// fast paths below bypass the k-ary search, so they record the visit
	// here.
	switch n.kt.Len() {
	case 0:
		obs.NodeVisits(1)
		if tr != nil {
			tr.FastPath("empty-node", 0)
		}
		return 0, false
	case 1:
		// A single-key node holds exactly its maximum.
		obs.NodeVisits(1)
		obs.ScalarComparisons(1)
		at, _ := n.kt.Max()
		switch {
		case at == pk:
			idx, ok = 0, true
		case at > pk:
			idx, ok = 0, false
		default:
			idx, ok = 1, false
		}
		if tr != nil {
			tr.Add(trace.Step{Kind: trace.KindFastPath, Depth: tr.Depth(),
				Note: "single-key", Position: idx, Scalar: 1})
		}
		return idx, ok
	case 256:
		// Full node: direct index, zero comparisons of any kind (§4).
		obs.NodeVisits(1)
		if tr != nil {
			tr.FastPath("full-node", int(pk))
		}
		return int(pk), true
	}
	pos, found := n.kt.LookupPT(pk, kary.Prepare(pk), t.cfg.Evaluator, tr)
	if found {
		return pos - 1, true
	}
	return pos, false
}

// Get returns the value stored under key, if present. A missing partial
// key or a mismatching stored prefix terminates the search above leaf
// level — the trie's comparison-saving advantage over tree structures
// (§4).
//
//simdtree:hotpath
func (t *Trie[K, V]) Get(key K) (v V, ok bool) {
	n := t.root
	if n == nil {
		return v, false
	}
	u := keys.OrderedBits(key)
	for level := 0; ; level++ {
		for _, p := range n.prefix {
			if t.segment(u, level) != p {
				return v, false
			}
			level++
		}
		idx, hit := t.find(n, t.segment(u, level), nil)
		if !hit {
			return v, false
		}
		if level == t.levels-1 {
			return n.vals[idx], true
		}
		n = n.children[idx]
	}
}

// GetTraced is Get additionally recording the descent into tr: the
// stored-prefix byte comparisons of each node (lazy expansion, §4), the
// segment byte and node of every materialized level, the fast path taken
// or the two SIMD compares of its 17-ary search, and the branch followed.
// A nil tr makes it exactly Get — the kernels are shared.
func (t *Trie[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool) {
	if tr == nil {
		return t.Get(key)
	}
	tr.SetStructure(t.name())
	n := t.root
	if n == nil {
		tr.FastPath("empty-trie", 0)
		return v, false
	}
	layout := t.cfg.Layout.String()
	u := keys.OrderedBits(key)
	for level := 0; ; level++ {
		matched := 0
		for _, p := range n.prefix {
			if t.segment(u, level) != p {
				tr.PrefixSkip(level-matched, matched, false)
				return v, false
			}
			matched++
			level++
		}
		if matched > 0 {
			tr.PrefixSkip(level-matched, matched, true)
		}
		pk := t.segment(u, level)
		tr.Segment(level, pk)
		tr.Node(level, n.kt.Len(), layout, "trie")
		idx, hit := t.find(n, pk, tr)
		if !hit {
			return v, false
		}
		if level == t.levels-1 {
			return n.vals[idx], true
		}
		tr.Branch(idx)
		n = n.children[idx]
	}
}

// Contains reports whether key is present.
func (t *Trie[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// path builds the nodes holding key u from level down to its value. The
// optimized trie stores every level above the last as the prefix of one
// value node (lazy expansion); the plain trie builds one single-key node
// per level.
func (t *Trie[K, V]) path(u uint64, level int, val V) *node[V] {
	last := t.levels - 1
	n := &node[V]{kt: t.single(t.segment(u, last)), vals: []V{val}}
	if t.optimized {
		n.prefix = make([]uint8, last-level)
		for i := range n.prefix {
			n.prefix[i] = t.segment(u, level+i)
		}
		return n
	}
	for l := last - 1; l >= level; l-- {
		n = &node[V]{kt: t.single(t.segment(u, l)), children: []*node[V]{n}}
	}
	return n
}

// single returns the 17-ary tree of a node holding one partial key.
func (t *Trie[K, V]) single(pk uint8) kary.Tree[uint8] {
	return *kary.BuildUnchecked([]uint8{pk}, t.cfg.Layout)
}

// Put stores val under key, returning true when the key was newly inserted
// and false when an existing value was replaced. A key diverging inside a
// stored prefix splits the node: a new two-way parent takes the prefix
// above the divergence.
func (t *Trie[K, V]) Put(key K, val V) bool {
	u := keys.OrderedBits(key)
	if t.root == nil {
		t.root = t.path(u, 0, val)
		t.size = 1
		return true
	}
	link := &t.root // the parent's pointer to n
	for level := 0; ; level++ {
		n := *link
		for d, old := range n.prefix {
			pk := t.segment(u, level)
			if pk == old {
				level++
				continue
			}
			split := &node[V]{prefix: slices.Clone(n.prefix[:d])}
			n.prefix = slices.Clone(n.prefix[d+1:])
			fresh := t.path(u, level+1, val)
			if pk < old {
				split.kt = *kary.BuildUnchecked([]uint8{pk, old}, t.cfg.Layout)
				split.children = []*node[V]{fresh, n}
			} else {
				split.kt = *kary.BuildUnchecked([]uint8{old, pk}, t.cfg.Layout)
				split.children = []*node[V]{n, fresh}
			}
			*link = split
			t.size++
			return true
		}
		pk := t.segment(u, level)
		idx, hit := t.find(n, pk, nil)
		last := level == t.levels-1
		if hit && last {
			n.vals[idx] = val
			return false
		}
		if hit {
			link = &n.children[idx]
			continue
		}
		n.kt.Insert(pk)
		if last {
			n.vals = slices.Insert(n.vals, idx, val)
		} else {
			n.children = slices.Insert(n.children, idx, t.path(u, level+1, val))
		}
		t.size++
		return true
	}
}

// Delete removes key, reporting whether it was present. Nodes emptied by
// the removal are unlinked bottom-up (§4: "a node that becomes empty due
// to deleting all partial keys will be removed"); the plain trie keeps
// its root. In the optimized trie an inner node left with a single child
// is compressed into that child (the inverse of lazy expansion), and the
// emptied trie drops its root.
func (t *Trie[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	u := keys.OrderedBits(key)
	type step struct {
		n   *node[V]
		idx int
	}
	var path []step
	n := t.root
	for level := 0; ; level++ {
		for _, p := range n.prefix {
			if t.segment(u, level) != p {
				return false
			}
			level++
		}
		idx, hit := t.find(n, t.segment(u, level), nil)
		if !hit {
			return false
		}
		path = append(path, step{n, idx})
		if level == t.levels-1 {
			break
		}
		n = n.children[idx]
	}
	i := len(path) - 1
	leaf := path[i]
	leaf.n.kt.Delete(leaf.n.kt.At(leaf.idx))
	leaf.n.vals = slices.Delete(leaf.n.vals, leaf.idx, leaf.idx+1)
	for ; i > 0 && path[i].n.kt.Len() == 0; i-- {
		p := path[i-1]
		p.n.kt.Delete(p.n.kt.At(p.idx))
		p.n.children = slices.Delete(p.n.children, p.idx, p.idx+1)
	}
	t.size--
	if !t.optimized {
		return true
	}
	// path[i] is the deepest node left non-empty, or the emptied root.
	switch p := path[i].n; {
	case p.kt.Len() == 0:
		t.root = nil
	case i < len(path)-1 && p.kt.Len() == 1:
		child := p.children[0]
		child.prefix = slices.Concat(p.prefix, []uint8{p.kt.At(0)}, child.prefix)
		if i == 0 {
			t.root = child
		} else {
			g := path[i-1]
			g.n.children[g.idx] = child
		}
	}
	return true
}
