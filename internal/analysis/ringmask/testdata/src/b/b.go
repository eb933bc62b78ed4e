// Package b is the clean fixture: the ring proves its capacity and
// masks every index, and a mask-bearing struct without an atomic cursor
// is not a lock-free ring at all.
package b

import (
	"atomic"
	"pow2"
)

type spanRing struct {
	slots []int
	mask  uint64
	seq   atomic.Uint64
}

func newSpanRing(capacity int) *spanRing {
	c := pow2.CeilCap(capacity, 1)
	return &spanRing{slots: make([]int, c), mask: uint64(c - 1)}
}

func (r *spanRing) add(v int) {
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask] = v
}

func (r *spanRing) snapshot() []int {
	seq := r.seq.Load()
	n := uint64(len(r.slots))
	if seq < n {
		n = seq
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.slots[(seq-1-i)&r.mask])
	}
	return out
}

// genRing is the generic ring (the shape of trace.Ring[T]) in its clean
// form: proven capacity, every slot index masked.
type genRing[T any] struct {
	slots []*T
	mask  uint64
	seq   atomic.Uint64
}

func newGenRing[T any](capacity int) *genRing[T] {
	c := pow2.CeilCap(capacity, 1)
	return &genRing[T]{slots: make([]*T, c), mask: uint64(c - 1)}
}

func (r *genRing[T]) add(x *T) {
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask] = x
}

func (r *genRing[T]) collect() []*T {
	seq := r.seq.Load()
	n := min(seq, uint64(len(r.slots)))
	out := make([]*T, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := &r.slots[(seq-1-i)&r.mask]
		out = append(out, *slot)
	}
	return out
}

// lookup has a mask and a slice but no atomic cursor: it is a plain
// table, not a lock-free ring, so its indexing is unconstrained.
type lookup struct {
	table []int
	mask  int
}

func (l *lookup) at(i int) int {
	return l.table[i]
}
