package kary

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitmask"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/trace"
)

// The descent kernels below are the zero-allocation hot paths of the
// paper's Algorithms 4 and 5; the directive keeps their
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^(Tree\.(SearchPT|LookupPT|descendBF|descendDF|SearchWithEquality)|clamp|firstSetLane)$

// strides[c][e] is k^e − 1 for the k of lane-width class c (c = log2 of
// the key width, so k = 17, 9, 5, 3): the key count of a perfect k-ary
// subtree of e levels. In an r-level tree, level R starts at slot
// k^R − 1 in the breadth-first layout (Algorithm 5) and skips subtrees of
// r−1−R levels in the depth-first layout (Algorithm 4), so one row serves
// both descents and no level divides. Entries past the largest k^e that
// fits an int saturate; no tree is that deep.
var strides = func() (t [4][64]int) {
	for c := range t {
		k := 16>>c + 1
		p := 1
		for e := range t[c] {
			t[c][e] = p - 1
			if p > math.MaxInt/k {
				p = math.MaxInt
			} else {
				p *= k
			}
		}
	}
	return t
}()

// strideRow returns the strides row of key type K. The width is a
// constant per instantiation, so the row is a constant address.
func strideRow[K keys.Key]() *[64]int {
	return &strides[bits.TrailingZeros8(uint8(keys.Width[K]()))&3]
}

// Search returns the index, in the original sorted order, of the first key
// strictly greater than v — the same value binary search on the sorted list
// yields, in [0, Len()]. It runs the paper's SIMD sequence once per k-ary
// tree level, dispatching to Algorithm 5 (breadth-first) or Algorithm 4
// (depth-first), and evaluates each comparison bitmask with ev.
func (t *Tree[K]) Search(v K, ev bitmask.Evaluator) int {
	return t.SearchPT(v, Prepare(v), ev, nil)
}

// SearchPT is Search with a caller-prepared search register (see
// Prepare), so one tree descent broadcasts the key only once, and with
// per-level trace recording into tr: every level's loaded lanes, movemask
// and verdict (nil records nothing and costs one pointer comparison per
// level). It is LookupPT without the membership bit: both run the same
// descent, so a trace shows exactly what the search executed.
//
//simdtree:hotpath
func (t *Tree[K]) SearchPT(v K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace) int {
	rank, _ := t.LookupPT(v, search, ev, tr)
	return rank
}

// Lookup combines Search with a membership test: it returns the rank (the
// index of the first key greater than v) and whether v itself is present.
// The equality information falls out of the descent for free — every
// visited node is tested with a three-instruction any-lane-equal check on
// the register that is already loaded, so callers avoid the position
// transformation a separate At(rank-1) comparison would cost.
func (t *Tree[K]) Lookup(v K, ev bitmask.Evaluator) (rank int, found bool) {
	return t.LookupPT(v, Prepare(v), ev, nil)
}

// LookupPT is Lookup with a caller-prepared search register (see Prepare)
// and per-level trace recording into tr (nil records nothing and costs one
// pointer comparison per level). Every search entry point ends here, and
// the node visit is counted once: one obs hook with the levels descended
// and the SIMD compares actually run.
//
//simdtree:hotpath
func (t *Tree[K]) LookupPT(v K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace) (rank int, found bool) {
	if t.n == 0 {
		obs.NodeSearched(0, 0)
		if tr != nil {
			tr.FastPath("empty-node", 0)
		}
		return 0, false
	}
	// §3.3: replenishment check. If v is not smaller than S_max, no key is
	// greater; this also guarantees the descent below never reads pad-only
	// regions outside the truncated storage. S_max is always a real key,
	// so larger keys cannot be present.
	if v >= t.smax {
		obs.NodeSearched(0, 0)
		if tr != nil {
			tr.FastPath("smax-short-circuit", t.n)
		}
		return t.n, v == t.smax
	}
	if t.Layout() == DepthFirst {
		return t.descendDF(search, ev, tr)
	}
	return t.descendBF(search, ev, tr)
}

// descendBF is the paper's Algorithm 5: breadth-first search using SIMD,
// here over a complete k-ary tree. pLevel accumulates one child digit per
// level and doubles as the node index within the next level, which starts
// at slot k^R − 1. Only the left-packed last level can be short: a
// descent to a node at or past the stored slots means the insertion point
// lies behind every one of the m existing leaves, giving rank
// pLevel + m·(k−1) directly. Each level is the §2.1 sequence written out
// straight: one inlined fused compare (load, compare, movemask, any-equal)
// for the key type's width — a constant, so one switch arm remains — and
// the evaluator switch.
//
//simdtree:hotpath
func (t *Tree[K]) descendBF(search simd.Search, ev bitmask.Evaluator, tr *trace.Trace) (rank int, found bool) {
	w := keys.Width[K]()
	lanes := 16 / w
	k := lanes + 1
	row := strideRow[K]()
	data, stored := t.data, t.stored

	r := int(t.r)
	pLevel, compared := 0, 0
	for R := 0; R < r; R++ {
		keyIdx := row[R&63] + pLevel*lanes
		if keyIdx >= stored {
			// Missing last-level node: v is larger than every key of all
			// m existing leaves, which therefore all count as ≤ v.
			if tr != nil {
				tr.Skip(R, "missing-leaf-node")
			}
			obs.NodeSearched(r, compared)
			return clamp(pLevel+t.m*lanes, t.n), found
		}
		var mask uint16
		var eq bool
		switch w {
		case 1:
			mask, eq = search.GtMaskEq8(data[keyIdx*w:])
		case 2:
			mask, eq = search.GtMaskEq16(data[keyIdx*w:])
		case 4:
			mask, eq = search.GtMaskEq32(data[keyIdx*w:])
		default:
			mask, eq = search.GtMaskEq64(data[keyIdx*w:])
		}
		var pos int
		switch ev {
		case bitmask.BitShift:
			pos = bitmask.BitShiftEval(mask, w)
		case bitmask.SwitchCase:
			pos = bitmask.SwitchEval(mask, w)
		default:
			pos = bitmask.PopcountEval(mask, w)
		}
		if tr != nil {
			tr.SIMD(R, w, t.laneStrings(keyIdx), mask, eq, pos)
		}
		found = found || eq
		pLevel = pLevel*k + pos
		compared++
	}
	obs.NodeSearched(r, compared)
	return clamp(pLevel, t.n), found
}

// descendDF is the paper's Algorithm 4: depth-first search using SIMD.
// At level R the key pointer jumps over the chosen number of perfect
// subtrees of r−1−R levels each; the level body is descendBF's.
//
//simdtree:hotpath
func (t *Tree[K]) descendDF(search simd.Search, ev bitmask.Evaluator, tr *trace.Trace) (rank int, found bool) {
	w := keys.Width[K]()
	lanes := 16 / w
	k := lanes + 1
	row := strideRow[K]()
	data, stored := t.data, t.stored

	r := int(t.r)
	pLevel, keyIdx, compared := 0, 0, 0
	for R := 0; R < r; R++ {
		pLevel *= k
		if keyIdx >= stored {
			// Truncated pure-pad region: every pad equals S_max > v, so
			// the digit of this and all deeper levels is 0. A search
			// below S_max never gets here — the separator before a
			// pad-only subtree is S_max or a pad — so this guards the
			// loads rather than counting as a compared level.
			if tr != nil {
				tr.Skip(R, "pad-region")
			}
			continue
		}
		var mask uint16
		var eq bool
		switch w {
		case 1:
			mask, eq = search.GtMaskEq8(data[keyIdx*w:])
		case 2:
			mask, eq = search.GtMaskEq16(data[keyIdx*w:])
		case 4:
			mask, eq = search.GtMaskEq32(data[keyIdx*w:])
		default:
			mask, eq = search.GtMaskEq64(data[keyIdx*w:])
		}
		var pos int
		switch ev {
		case bitmask.BitShift:
			pos = bitmask.BitShiftEval(mask, w)
		case bitmask.SwitchCase:
			pos = bitmask.SwitchEval(mask, w)
		default:
			pos = bitmask.PopcountEval(mask, w)
		}
		if tr != nil {
			tr.SIMD(R, w, t.laneStrings(keyIdx), mask, eq, pos)
		}
		found = found || eq
		keyIdx += lanes + row[(r-1-R)&63]*pos
		pLevel += pos
		compared++
	}
	obs.NodeSearched(r, compared)
	return clamp(pLevel, t.n), found
}

// laneStrings formats the lane values of the node starting at slot
// keyIdx for a trace step; called only on traced descents.
func (t *Tree[K]) laneStrings(keyIdx int) []string {
	lanes := int(t.lanes)
	out := make([]string, lanes)
	for i := 0; i < lanes; i++ {
		out[i] = fmt.Sprint(keys.GetAt[K](t.data, keyIdx+i))
	}
	return out
}

//simdtree:hotpath
func clamp(x, hi int) int {
	if x > hi {
		return hi
	}
	return x
}

// SearchWithEquality is the §3.1 extension the paper discusses: each level
// additionally compares for equality (no extra load — both registers are
// already resident in SIMD registers) and terminates the descent early on
// a hit. The paper expects no improvement for flat trees;
// BenchmarkAblationEqualityCheck measures it. Only the breadth-first
// layout is supported, matching the paper's discussion.
//
//simdtree:hotpath
func (t *Tree[K]) SearchWithEquality(v K, ev bitmask.Evaluator) int {
	if t.Layout() != BreadthFirst {
		return t.Search(v, ev)
	}
	obs.NodeVisits(1)
	if t.n == 0 {
		return 0
	}
	if v >= t.smax {
		return t.n
	}
	obs.LevelsDescended(int(t.r))
	w, k, lanes := int(t.w), int(t.k), int(t.lanes)
	search := Prepare(v)

	pLevel := 0
	base := 0
	lvlCnt := 1
	for R := 0; R < int(t.r)-1; R++ {
		keyIdx := base + pLevel*lanes
		eqMask := search.EqMask(t.data[keyIdx*w:])
		if eqMask != 0 {
			// v equals key i of upper node j at level R. That key is the
			// (t+1)-th upper key in order, with t+1 = (j·k+i+1)·k^(r−2−R),
			// and each of the first min(t+1, m) upper keys is preceded by
			// one full leaf.
			j := pLevel
			i := firstSetLane(eqMask, w)
			t1 := (j*k + i + 1) * pow(k, int(t.r)-2-R)
			leaves := t1
			if leaves > t.m {
				leaves = t.m
			}
			return clamp(t1+leaves*lanes, t.n)
		}
		mask := search.GtMask(t.data[keyIdx*w:])
		pLevel = pLevel*k + ev.Evaluate(mask, w)
		base += lvlCnt * lanes
		lvlCnt *= k
	}
	if pLevel >= t.m {
		return clamp(pLevel+t.m*lanes, t.n)
	}
	keyIdx := base + pLevel*lanes
	eqMask := search.EqMask(t.data[keyIdx*w:])
	if eqMask != 0 {
		return clamp(pLevel*k+firstSetLane(eqMask, w)+1, t.n)
	}
	mask := search.GtMask(t.data[keyIdx*w:])
	return clamp(pLevel*k+ev.Evaluate(mask, w), t.n)
}

// firstSetLane returns the index of the first lane whose mask bits are set.
//
//simdtree:hotpath
func firstSetLane(mask uint16, width int) int {
	i := 0
	for mask&1 == 0 {
		mask >>= uint(width)
		i++
	}
	return i
}

// UpperBound is the baseline the paper compares against: classic binary
// search returning the index of the first element strictly greater than v.
func UpperBound[K keys.Key](xs []K, v K) int {
	pos, _ := UpperBoundCount(xs, v)
	return pos
}

// UpperBoundCount is UpperBound additionally reporting the number of
// comparison steps the binary search took, for per-operation tracing.
func UpperBoundCount[K keys.Key](xs []K, v K) (pos, steps int) {
	lo, hi := 0, len(xs)
	for lo < hi {
		steps++
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	obs.ScalarComparisons(steps)
	return lo, steps
}

// SequentialUpperBound is the sequential scan strategy mentioned among the
// classic inner-node search strategies (§1); used as an extra baseline.
func SequentialUpperBound[K keys.Key](xs []K, v K) int {
	for i, x := range xs {
		if x > v {
			obs.ScalarComparisons(i + 1)
			return i
		}
	}
	obs.ScalarComparisons(len(xs))
	return len(xs)
}
