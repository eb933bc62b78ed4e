// Package a seeds ringmask violations: unproven capacities and unmasked
// slot indexes on a lock-free ring.
package a

import (
	"atomic"
	"pow2"
)

type ring struct {
	slots []uint64
	mask  uint64
	seq   atomic.Uint64
}

func newRing(n int) *ring {
	c := pow2.CeilCap(n, 1)
	return &ring{slots: make([]uint64, c), mask: uint64(c - 1)}
}

func newBadRing(n int) *ring {
	return &ring{
		slots: make([]uint64, n), // want `ring ring slice assigned without a proven power-of-two capacity`
		mask:  uint64(n - 1),     // want `ring ring mask assigned a value not provably capacity-1`
	}
}

func newConstRing() *ring {
	return &ring{slots: make([]uint64, 64), mask: 63} // constants: 64 is pow2, 63 is 64-1
}

func (r *ring) put(v uint64) {
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask] = v // masked: fine
}

func (r *ring) bad(i uint64) uint64 {
	return r.slots[i] // want `index into ring ring slice slots is not masked`
}

func (r *ring) lenMinusOne(i uint64) uint64 {
	return r.slots[i&uint64(len(r.slots)-1)] // fine: len-1 of the ring slice
}

func (r *ring) modLen(i int) uint64 {
	return r.slots[i%len(r.slots)] // fine: % ring length
}

func (r *ring) sum() uint64 {
	var s uint64
	for i := range r.slots {
		s += r.slots[i] // fine: range key
	}
	return s
}

func (r *ring) maskedLocal(h uint64) uint64 {
	i := h & r.mask
	return r.slots[i] // fine: local provably masked
}

func (r *ring) clobberedLocal(h uint64) uint64 {
	i := h & r.mask
	i = h
	return r.slots[i] // want `index into ring ring slice slots is not masked`
}

func (r *ring) first() uint64 {
	return r.slots[0] // fine: constant
}

func (r *ring) resize(n int) {
	r.mask = uint64(n) // want `ring ring mask assigned a value not provably capacity-1`
}

// genRing is the generic form (trace.Ring[T]): instantiated field
// selections must resolve to the same ring fields.
type genRing[T any] struct {
	slots []*T
	mask  uint64
	seq   atomic.Uint64
}

func newGenRing[T any](n int) *genRing[T] {
	c := pow2.CeilCap(n, 1)
	return &genRing[T]{slots: make([]*T, c), mask: uint64(c - 1)}
}

func newBadGenRing[T any](n int) *genRing[T] {
	return &genRing[T]{
		slots: make([]*T, n), // want `ring genRing slice assigned without a proven power-of-two capacity`
		mask:  uint64(n - 1), // want `ring genRing mask assigned a value not provably capacity-1`
	}
}

func (r *genRing[T]) add(x *T) {
	i := r.seq.Add(1) - 1
	r.slots[i] = x // want `index into ring genRing slice slots is not masked`
}

func (r *genRing[T]) resize(n int) {
	r.mask = uint64(n) // want `ring genRing mask assigned a value not provably capacity-1`
}
