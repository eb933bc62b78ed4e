package index_test

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/index"
	"repro/internal/segtree"
)

// parallelGetIndex is segserve's composition: an Instrumented index with
// cost-model counters over 16 versioned Seg-Tree shards, holding 1M
// distinct random uint64 keys. probes mixes loaded and absent keys half
// and half. Built once per test binary: loading takes seconds.
var parallelGetIndex = sync.OnceValues(func() (*index.Instrumented[uint64, uint64], []uint64) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	ks := make([]uint64, 0, n)
	for len(ks) < n {
		for len(ks) < n {
			ks = append(ks, rng.Uint64())
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
	}
	sh := index.NewSharded[uint64, uint64](16, func() index.Index[uint64, uint64] {
		return segtree.New[uint64, uint64](segtree.DefaultConfig[uint64]())
	})
	ix := index.NewInstrumented[uint64, uint64](sh, true)
	for _, k := range ks {
		ix.Put(k, k)
	}
	probes := make([]uint64, 1<<16)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = ks[rng.Intn(n)]
		} else {
			probes[i] = rng.Uint64()
		}
	}
	return ix, probes
})

// BenchmarkInstrumentedGetParallel issues point Gets from b.RunParallel
// goroutines against parallelGetIndex. Run it with -cpu 1,2: a per-op
// cost that grows with the goroutine count is shared state the readers
// write, such as the counter destination or a histogram's cache lines.
func BenchmarkInstrumentedGetParallel(b *testing.B) {
	ix, probes := parallelGetIndex()
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1) * 7919
		var sink uint64
		for pb.Next() {
			v, _ := ix.Get(probes[i&(1<<16-1)])
			sink += v
			i++
		}
		_ = sink
	})
}
