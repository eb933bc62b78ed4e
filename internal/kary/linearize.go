package kary

import "repro/internal/keys"

// Position transformations from sorted order into linearized order for a
// perfect k-ary search tree of r levels (capacity k^r − 1 keys). These are
// iterative forms of the paper's recursive Formula 1 (breadth-first) and
// Formula 2 (depth-first).
//
// Structure of the perfect tree over sorted positions 0 … k^r−2: with
// T_R = k^(r−R) (the sorted span one level-R subtree covers, separators
// included), the keys of the level-R node j are the sorted positions
// j·T_R + (i+1)·T_{R+1} − 1 for i = 0 … k−2. Equivalently, sorted position
// s lies on level R = r−1−e where e is the multiplicity of k in s+1
// (capped at r−1).

// posBF maps sorted position s to its breadth-first slot (Formula 1):
// levels are stored contiguously, the level-R region starting at slot
// k^R − 1, nodes left to right, keys left to right within a node.
func posBF(s, k, r int) int {
	q := s + 1
	e := 0
	for q%k == 0 && e < r-1 {
		q /= k
		e++
	}
	// Level R = r−1−e; q = j·k + (i+1) encodes node index j within the
	// level and key index i within the node.
	j := q / k
	i := q%k - 1
	levelStart := pow(k, r-1-e) - 1
	return levelStart + j*(k-1) + i
}

// posDF maps sorted position s to its depth-first slot (Formula 2): a
// node's k−1 keys are stored first, followed by its k subtrees in order.
func posDF(s, k, r int) int {
	pos := 0
	rem := s                  // position within the current subtree's sorted range
	childCap := pow(k, r) / k // T_{R+1}: sorted span of each child subtree
	for {
		if (rem+1)%childCap == 0 {
			// Separator of the current node.
			return pos + (rem+1)/childCap - 1
		}
		c := (rem + 1) / childCap
		// Skip this node's keys and the c preceding subtrees, each
		// holding childCap−1 keys.
		pos += (k - 1) + c*(childCap-1)
		rem -= c * childCap
		childCap /= k
	}
}

// storedDF returns the truncated depth-first slot count of n ≥ 1 keys in
// a perfect tree of r levels: the end of the last node holding a real key.
// Descending by rank n−1, that node ends the subtree left of the separator
// holding rank n−1 (the separator's own node when it is a leaf).
func storedDF(n, k, r int) int {
	pos := 0
	rem := n - 1
	childCap := pow(k, r) / k
	for {
		c := (rem + 1) / childCap
		if (rem+1)%childCap == 0 {
			return pos + (k - 1) + c*(childCap-1)
		}
		pos += (k - 1) + c*(childCap-1)
		rem -= c * childCap
		childCap /= k
	}
}

// walkDF calls visit(s, slot) for the sorted positions s = 0 … n−1 in
// ascending order, with slot the depth-first slot of s in a perfect tree
// of r levels (Formula 2). It walks the geometry in order once, so a full
// build or read costs one visit per key rather than one posDF per key.
func walkDF(k, r, n int, visit func(s, slot int)) {
	walkSubtreeDF(0, pow(k, r-1)-1, k, 0, n, visit)
}

// walkSubtreeDF visits the subtree whose root node starts at slot start
// and whose children hold sub keys each, beginning at sorted position s;
// it returns the next unvisited sorted position.
func walkSubtreeDF(start, sub, k, s, n int, visit func(s, slot int)) int {
	lanes := k - 1
	for c := 0; c < k && s < n; c++ {
		if sub > 0 {
			s = walkSubtreeDF(start+lanes+c*sub, (sub-lanes)/k, k, s, n, visit)
		}
		if c < lanes && s < n {
			visit(s, start+c)
			s++
		}
	}
	return s
}

// posComplete maps sorted position s to its breadth-first slot in a
// complete k-ary tree of r levels with m last-level nodes: the upper r−1
// levels form a perfect tree mapped by posBF, the last level is left-packed
// starting at slot k^(r−1)−1. In-order, leaf j covers sorted positions
// j·k … j·k+k−2 and is followed by one upper key; once the leaves are
// exhausted the remaining sorted positions are all upper keys.
func posComplete(s, k, r, m int) int {
	if r == 1 {
		return s
	}
	if s < m*k && (s+1)%k != 0 {
		j := s / k
		return pow(k, r-1) - 1 + j*(k-1) + (s - j*k)
	}
	var upperIdx int
	if s < m*k {
		upperIdx = (s+1)/k - 1
	} else {
		upperIdx = s - m*(k-1)
	}
	return posBF(upperIdx, k, r-1)
}

// LinearizeBF linearizes a sorted list breadth-first, returning the slot
// values including replenishment pads (paper Figure 4). It is a
// convenience wrapper over Build for inspection and tests; the trees keep
// the packed byte form internally.
func LinearizeBF[K keys.Key](sorted []K) []K {
	return Build(sorted, BreadthFirst).Linearized()
}

// LinearizeDF linearizes a sorted list depth-first (paper Formula 2).
func LinearizeDF[K keys.Key](sorted []K) []K {
	return Build(sorted, DepthFirst).Linearized()
}
