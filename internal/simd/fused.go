package simd

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/obs"
)

// Fused forms of the paper's per-node instruction sequence (load → compare
// → movemask), used by the search hot paths. They are semantically
// identical to composing Load, CmpGt* and MoveMaskEpi8 — the test suite
// cross-checks them bit for bit — but exploit two things real SSE code
// also exploits: the search register is loop-invariant (its biased
// complement terms are precomputed once per search, like hoisting the
// unsigned-realignment XOR of §2.1), and the only consumer of the compare
// result is the movemask, so the per-lane carry bits are gathered directly
// into mask position instead of being spread to 0xFF lanes first.
//
// The produced mask is exactly the _mm_movemask_epi8 result: one bit per
// byte, i.e. width bits per true lane.

// Every fused kernel below runs once per visited node and is a
// zero-allocation hot path; the directive keeps the //simdtree:hotpath
// annotations checked by cmd/simdvet.
//
//simdtree:kernels ^(NewSearch|load|gtMask(8|16|32)|Search\.(GtMask(64)?|GtMaskEq(8|16|32|64)?|EqAny|EqMask))$

// Search is a prepared search register for repeated greater-than compares
// of one search key against packed nodes.
type Search struct {
	width int
	// lo is the biased (unsigned-order) broadcast value, used by the
	// 64-bit kernel and the equality kernel.
	lo, hi uint64
	// sc is the precomputed per-container complement of the search lanes:
	// adding it to a biased key lane produces a carry exactly when the
	// key is greater.
	sc uint64
}

// NewSearch broadcasts the order-preserving (unsigned-order) bit pattern
// of the search key and precomputes the compare terms.
//
//simdtree:hotpath
func NewSearch(width int, orderedBits uint64) Search {
	s := Search{width: width}
	switch width {
	case 1:
		v := orderedBits & 0xFF * rep8
		s.lo, s.hi = v, v
		s.sc = evenBytes - (v & evenBytes)
	case 2:
		v := orderedBits & 0xFFFF * rep16
		s.lo, s.hi = v, v
		s.sc = evenWords - (v & evenWords)
	case 4:
		v := orderedBits & 0xFFFFFFFF * rep32
		s.lo, s.hi = v, v
		s.sc = lowDword - (v & lowDword)
	default:
		s.lo, s.hi = orderedBits, orderedBits
	}
	return s
}

// Width reports the lane width the search was prepared for.
func (s Search) Width() int { return s.width }

// Multiply-gather constants: they move the per-container carry bits of one
// register half into the top byte, yielding the byte-granularity movemask
// bits for the even (or odd) lanes. The partial products never collide, so
// no carries corrupt the result.
const (
	gather8  = 1<<48 | 1<<34 | 1<<20 | 1<<6 // carries at bits 8,24,40,56 → mask bits 0,2,4,6
	gather16 = 1<<40 | 1<<12                // carries at bits 16,48 → mask bits 0,4
)

// gtMask8 compares eight biased byte lanes of one half against the
// prepared search and returns their byte mask bits.
//
//simdtree:hotpath
func gtMask8(a uint64, sc uint64) uint32 {
	te := (a & evenBytes) + sc
	to := ((a >> 8) & evenBytes) + sc
	ge := uint32((te&carry8)*gather8>>56) & 0x55
	godd := uint32((to&carry8)*gather8>>56) & 0x55
	return ge | godd<<1
}

// gtMask16 is gtMask8 for four 16-bit lanes (two mask bits per lane).
//
//simdtree:hotpath
func gtMask16(a uint64, sc uint64) uint32 {
	te := (a & evenWords) + sc
	to := ((a >> 16) & evenWords) + sc
	ge := uint32((te&carry16)*gather16>>56) & 0x11
	godd := uint32((to&carry16)*gather16>>56) & 0x11
	return (ge | godd<<2) * 0x3
}

// gtMask32 is gtMask8 for two 32-bit lanes (four mask bits per lane).
//
//simdtree:hotpath
func gtMask32(a uint64, sc uint64) uint32 {
	tl := (a & lowDword) + sc
	th := (a >> 32) + sc
	return uint32(tl>>32&1)*0x0F | uint32(th>>32&1)*0xF0
}

// The per-width kernels below are the straight-line bodies of GtMaskEq
// (and of GtMask's 64-bit arm), with no counting hook and no width
// dispatch. A caller whose lane width is a compile-time constant — the
// k-ary descent, instantiated per key type — switches on it once per
// level and the compiler keeps a single arm. The 64-bit kernels fit Go's
// inlining budget; the SWAR 8/16/32-bit ones do not and cost one call.
// Every kernel reads b[0:16]; the masks are exactly GtMask's, the eq bit
// exactly EqAny's.

// load reads the two little-endian halves of the 16-byte node at b with
// one bounds check.
//
//simdtree:hotpath
func load(b []byte) (lo, hi uint64) {
	b = b[:16]
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}

// GtMask64 is GtMask for two 64-bit lanes. The borrow of s.lo−lane is the
// lane's greater-than bit, so the mask is built without a branch on data.
//
//simdtree:hotpath
func (s Search) GtMask64(b []byte) uint16 {
	lo, hi := load(b)
	_, gl := bits.Sub64(s.lo, lo^sign64, 0)
	_, gh := bits.Sub64(s.hi, hi^sign64, 0)
	return uint16(gl*0x00FF | gh*0xFF00)
}

// GtMaskEq8 is GtMaskEq for sixteen 8-bit lanes.
//
//simdtree:hotpath
func (s Search) GtMaskEq8(b []byte) (uint16, bool) {
	lo, hi := load(b)
	lo, hi = lo^sign8, hi^sign8
	x, y := lo^s.lo, hi^s.hi
	return uint16(gtMask8(lo, s.sc) | gtMask8(hi, s.sc)<<8), ((x-rep8)&^x|(y-rep8)&^y)&sign8 != 0
}

// GtMaskEq16 is GtMaskEq for eight 16-bit lanes.
//
//simdtree:hotpath
func (s Search) GtMaskEq16(b []byte) (uint16, bool) {
	lo, hi := load(b)
	lo, hi = lo^sign16, hi^sign16
	x, y := lo^s.lo, hi^s.hi
	return uint16(gtMask16(lo, s.sc) | gtMask16(hi, s.sc)<<8), ((x-rep16)&^x|(y-rep16)&^y)&sign16 != 0
}

// GtMaskEq32 is GtMaskEq for four 32-bit lanes.
//
//simdtree:hotpath
func (s Search) GtMaskEq32(b []byte) (uint16, bool) {
	lo, hi := load(b)
	lo, hi = lo^sign32, hi^sign32
	x, y := lo^s.lo, hi^s.hi
	return uint16(gtMask32(lo, s.sc) | gtMask32(hi, s.sc)<<8), ((x-rep32)&^x|(y-rep32)&^y)&sign32 != 0
}

// GtMaskEq64 is GtMaskEq for two 64-bit lanes.
//
//simdtree:hotpath
func (s Search) GtMaskEq64(b []byte) (uint16, bool) {
	lo, hi := load(b)
	lo, hi = lo^sign64, hi^sign64
	_, gl := bits.Sub64(s.lo, lo, 0)
	_, gh := bits.Sub64(s.hi, hi, 0)
	return uint16(gl*0x00FF | gh*0xFF00), min(lo^s.lo, hi^s.hi) == 0
}

// GtMask loads one 16-byte node from b, compares every lane against the
// prepared search key for greater-than, and returns the movemask — steps
// 1, 3 and 4 of the paper's §2.1 sequence in one kernel. It counts one
// SIMD comparison.
//
//simdtree:hotpath
func (s Search) GtMask(b []byte) uint16 {
	obs.SIMDComparisons(1)
	lo, hi := load(b)
	switch s.width {
	case 1:
		return uint16(gtMask8(lo^sign8, s.sc) | gtMask8(hi^sign8, s.sc)<<8)
	case 2:
		return uint16(gtMask16(lo^sign16, s.sc) | gtMask16(hi^sign16, s.sc)<<8)
	case 4:
		return uint16(gtMask32(lo^sign32, s.sc) | gtMask32(hi^sign32, s.sc)<<8)
	default:
		return s.GtMask64(b)
	}
}

// EqAny reports whether any lane of the 16-byte node at b equals the
// prepared search key. It uses the classic has-zero-lane test on the XOR
// of the operands — exact for existence — and costs three ALU operations
// per register half.
//
//simdtree:hotpath
func (s Search) EqAny(b []byte) bool {
	obs.SIMDComparisons(1)
	lo := binary.LittleEndian.Uint64(b)
	hi := binary.LittleEndian.Uint64(b[8:])
	switch s.width {
	case 1:
		x, y := lo^sign8^s.lo, hi^sign8^s.hi
		return (x-rep8)&^x&sign8 != 0 || (y-rep8)&^y&sign8 != 0
	case 2:
		x, y := lo^sign16^s.lo, hi^sign16^s.hi
		return (x-rep16)&^x&sign16 != 0 || (y-rep16)&^y&sign16 != 0
	case 4:
		x, y := lo^sign32^s.lo, hi^sign32^s.hi
		return (x-rep32)&^x&sign32 != 0 || (y-rep32)&^y&sign32 != 0
	default:
		return lo^sign64 == s.lo || hi^sign64 == s.hi
	}
}

// GtMaskEq combines GtMask and EqAny over a single pair of 64-bit loads,
// for lookups that need both the rank digit and the membership bit of a
// node visit.
// In the §4 cost model a fused visit is still one SIMD comparison — both
// results come from the same loaded register pair — so it counts once.
//
//simdtree:hotpath
func (s Search) GtMaskEq(b []byte) (mask uint16, eq bool) {
	obs.SIMDComparisons(1)
	switch s.width {
	case 1:
		return s.GtMaskEq8(b)
	case 2:
		return s.GtMaskEq16(b)
	case 4:
		return s.GtMaskEq32(b)
	default:
		return s.GtMaskEq64(b)
	}
}

// EqMask is GtMask for lane equality, used by the §3.1 equality-check
// extension.
//
//simdtree:hotpath
func (s Search) EqMask(b []byte) uint16 {
	obs.SIMDComparisons(1)
	lo := binary.LittleEndian.Uint64(b)
	hi := binary.LittleEndian.Uint64(b[8:])
	switch s.width {
	case 1:
		return uint16(moveMask64(eqLanes(lo^sign8, s.lo, 1)) |
			moveMask64(eqLanes(hi^sign8, s.hi, 1))<<8)
	case 2:
		return uint16(moveMask64(eqLanes(lo^sign16, s.lo, 2)) |
			moveMask64(eqLanes(hi^sign16, s.hi, 2))<<8)
	case 4:
		return uint16(moveMask64(eqLanes(lo^sign32, s.lo, 4)) |
			moveMask64(eqLanes(hi^sign32, s.hi, 4))<<8)
	default:
		var m uint16
		if lo^sign64 == s.lo {
			m = 0x00FF
		}
		if hi^sign64 == s.hi {
			m |= 0xFF00
		}
		return m
	}
}
