package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// value is the pure function every stored value follows: the decimal form
// of its key, which is also what segserve's -preload stores. No workload
// deletes, so a key once present stays present with this value.
func value(k uint64) string { return strconv.FormatUint(k, 10) }

// valueIs reports whether v is value(k) without allocating, so checking
// answers adds no garbage collection work to a measured phase.
func valueIs(k uint64, v string) bool {
	var buf [20]byte
	return string(strconv.AppendUint(buf[:0], k, 10)) == v
}

// kv is one item a scan returned.
type kv struct {
	k uint64
	v string
}

// bitset is a fixed-size set of small keys, safe for concurrent use.
type bitset []atomic.Uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) add(k uint64)      { b[k/64].Or(1 << (k % 64)) }
func (b bitset) has(k uint64) bool { return b[k/64].Load()&(1<<(k%64)) != 0 }

// denseOracle knows the key set of the dense workloads: keys below preload
// were loaded before the run, and writes only ever add keys. A key is
// certainly present once a Put of it has completed before the read began,
// and may be present once a Put of it has started.
type denseOracle struct {
	preload uint64
	started bitset
	done    bitset
}

func newDenseOracle(preload, keySpace int) *denseOracle {
	return &denseOracle{preload: uint64(preload), started: newBitset(keySpace), done: newBitset(keySpace)}
}

func (o *denseOracle) mustHave(k uint64) bool { return k < o.preload || o.done.has(k) }
func (o *denseOracle) mayHave(k uint64) bool  { return k < o.preload || o.started.has(k) }

// checkGet judges one point lookup; must was taken before the lookup
// started, may is taken after it returned.
func (o *denseOracle) checkGet(k uint64, v string, found, must bool) string {
	switch {
	case found && !valueIs(k, v):
		return fmt.Sprintf("get %d returned value %q", k, v)
	case found && !o.mayHave(k):
		return fmt.Sprintf("get %d found a key never written", k)
	case !found && must:
		return fmt.Sprintf("get %d missed a present key", k)
	}
	return ""
}

// checkScan judges one range scan over [lo, hi] with the given limit:
// ascending, in range, at most limit items, correct values, and every key
// that was present before the scan began, up to where the limit cut the
// result off. must[i] tells whether lo+i was present beforehand.
func (o *denseOracle) checkScan(lo, hi uint64, limit int, items []kv, must []bool) string {
	if len(items) > limit {
		return fmt.Sprintf("scan [%d,%d] returned %d items, limit %d", lo, hi, len(items), limit)
	}
	next := lo
	for i, it := range items {
		if it.k < lo || it.k > hi || (i > 0 && it.k <= items[i-1].k) {
			return fmt.Sprintf("scan [%d,%d] item %d key %d out of order or range", lo, hi, i, it.k)
		}
		if !valueIs(it.k, it.v) || !o.mayHave(it.k) {
			return fmt.Sprintf("scan [%d,%d] returned wrong item %d=%q", lo, hi, it.k, it.v)
		}
		for ; next < it.k; next++ {
			if must[next-lo] {
				return fmt.Sprintf("scan [%d,%d] skipped present key %d", lo, hi, next)
			}
		}
		next = it.k + 1
	}
	if len(items) < limit {
		for ; next <= hi; next++ {
			if must[next-lo] {
				return fmt.Sprintf("scan [%d,%d] skipped present key %d", lo, hi, next)
			}
		}
	}
	return ""
}

// tally counts operations and oracle verdicts.
type tally struct {
	attempted int64
	failed    int64 // transport or server errors
	wrong     int64 // answers the oracle rejected
	// firstProblems keeps the first few failures for the report.
	firstProblems []string
}

const keptProblems = 5

func (t *tally) note(problem string) {
	if len(t.firstProblems) < keptProblems {
		t.firstProblems = append(t.firstProblems, problem)
	}
}

// judge records one operation's outcome.
func (t *tally) judge(err error, problem string) {
	t.attempted++
	switch {
	case err != nil:
		t.failed++
		t.note(err.Error())
	case problem != "":
		t.wrong++
		t.note(problem)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	for _, p := range o.firstProblems {
		t.note(p)
	}
}
