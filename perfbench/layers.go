package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	simdtree "repro"
	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/segtree"
)

// This file holds the traced run's per-layer measurements. Spans around
// each operation come from the workload phases (spans.go); the numbers
// below come from calling each layer's public functions directly, with
// the workload's own keys and probes:
//
//   - the Get ladder: the raw Seg-Tree, the B+-Tree baseline, one
//     Versioned Seg-Tree, then the composed index's Sharded layer and its
//     Instrumented top. Each rung is timed per call on the same probes,
//     rungs interleaved round by round; a delta between neighbouring
//     rungs is that layer's own cost;
//   - exact cost counts (SIMD compares, mask evaluations, k-ary levels,
//     nodes) from the composed index's own counters over an untimed pass;
//   - the in-node kernels (simd.Search.GtMask, kary.Tree.Search) on
//     node-sized linearized trees cut from the workload's keys;
//   - single-application Put latency of the raw tree and of Versioned;
//   - MVCC publication and shard balance over the phase that writes.

// ladderInput is one workload's data for the ladder.
type ladderInput struct {
	keys []uint64 // loaded keys, ascending
	// writes are Put after the load, each timed; when nil the ascending
	// load Puts themselves are timed.
	writes []uint64
	probes []uint64
	// present says what a Get of probes[i] must answer: 1 found, 0 absent,
	// -1 either (the key may have been written).
	present []int8
	// scanHi gives the upper bound of the 100-item scan starting at lo.
	scanHi func(lo uint64) uint64
}

const (
	ladderRounds  = 5
	ladderCallers = 2
	kernelBatch   = 256
)

// ladder measures every in-process layer and adds the figures to res;
// readP50 is the untraced client-observed read median the top rung is
// compared with.
func ladder(res *result, in ladderInput, composed *simdtree.InstrumentedIndex[uint64, string], readP50 float64) error {
	newSeg := func() *segtree.Tree[uint64, string] {
		return segtree.New[uint64, string](segtree.DefaultConfig[uint64]())
	}
	// The Versioned build takes as long as the other two together; run
	// them side by side, one per CPU.
	raw := newSeg()
	ver := index.NewVersioned[uint64, string](func() index.Index[uint64, string] { return newSeg() })
	bt := btree.New[uint64, string](btree.DefaultConfig[uint64]())
	var segPuts, verPuts samples
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		verPuts = loadTimed(ver.Put, in.keys, in.writes)
	}()
	segPuts = loadTimed(raw.Put, in.keys, in.writes)
	loadTimed(bt.Put, in.keys, in.writes)
	wg.Wait()

	setPutQuantiles(res, "segtree", segPuts)
	setPutQuantiles(res, "index.versioned", verPuts)
	sh := raw.Shape()
	res.set("segtree.bytes_per_key", sh.BytesPerKey, "B")
	res.set("segtree.reg_util", sh.RegisterUtilization, "ratio")

	// Exact cost counts along the composed descent. The Instrumented
	// wrapper enables its own counters around each operation, so read
	// those; nothing else runs meanwhile.
	c0 := composed.Counters().Read()
	for _, p := range in.probes {
		composed.Get(p)
	}
	c1 := composed.Counters().Read()
	n := float64(len(in.probes))
	res.set("simd.compares_per_get", float64(c1.SIMDComparisons-c0.SIMDComparisons)/n, "count")
	res.set("bitmask.evals_per_get", float64(c1.MaskEvaluations-c0.MaskEvaluations)/n, "count")
	res.set("kary.levels_per_get", float64(c1.LevelsDescended-c0.LevelsDescended)/n, "count")
	res.set("segtree.nodes_per_get", float64(c1.NodeVisits-c0.NodeVisits)/n, "count")

	sharded, ok := composed.Unwrap().(*index.Sharded[uint64, string])
	if !ok {
		return fmt.Errorf("composed index wraps %T, want a sharded index", composed.Unwrap())
	}
	rungs := []struct {
		name string
		get  func(uint64) (string, bool)
	}{
		{"segtree.get_ns", raw.Get},
		{"btree.get_ns", bt.Get},
		{"index.versioned.get_ns", ver.Get},
		{"index.sharded.get_ns", sharded.Get},
		{"index.instrumented.get_ns", composed.Get},
	}
	// Each rung runs with as many concurrent callers as the workload has
	// clients, so that the top rung sees the same contention as the
	// end-to-end read median it should agree with.
	times := make([]samples, len(rungs))
	chunk := len(in.probes) / ladderRounds
	for round := 0; round < ladderRounds; round++ {
		for r, rung := range rungs {
			lo := round * chunk
			part := make([]samples, ladderCallers)
			errs := make([]error, ladderCallers)
			var wg sync.WaitGroup
			for c := range part {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := lo + c; i < lo+chunk; i += ladderCallers {
						p := in.probes[i]
						start := time.Now()
						v, found := rung.get(p)
						part[c] = append(part[c], time.Since(start))
						if want := in.present[i]; (want == 1 && (!found || !valueIs(p, v))) || (want == 0 && found) {
							errs[c] = fmt.Errorf("ladder: %s of %d answered found=%v value=%q", rung.name, p, found, v)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			for _, p := range part {
				times[r] = append(times[r], p...)
			}
		}
	}
	med := make([]float64, len(rungs))
	for r, rung := range rungs {
		times[r].sort()
		med[r] = float64(times[r].quantile(0.5))
		res.setQ(rung.name, med[r], "ns", len(times[r]))
	}
	res.set("index.versioned.pin_ns", med[2]-med[0], "ns")
	res.set("index.sharded.route_ns", med[3]-med[2], "ns")
	res.set("index.instrumented.wrap_ns", med[4]-med[3], "ns")
	res.set("trace.top_rung_vs_read_p50_us", med[4]/1e3-readP50, "us")

	kernels(res, in)
	if err := batchAndScan(res, in, composed); err != nil {
		return err
	}
	return forcedClones(res, in, composed)
}

// forcedClones times what a clone costs a writer. With a snapshot of the
// composed index held open, the first Put to a shard still adopts an older
// drained tree, but it retires the pinned version, so the second Put finds
// every retired tree pinned and has to copy the shard's tree. The Puts
// rewrite keys the workload already holds, so the key set does not
// change.
func forcedClones(res *result, in ladderInput, composed *simdtree.InstrumentedIndex[uint64, string]) error {
	const clones = 3
	var took samples
	for i := 0; i < clones; i++ {
		k := in.keys[(i+1)*len(in.keys)/(clones+1)]
		snap, ok := composed.ReadSnapshot()
		if !ok {
			return fmt.Errorf("composed index %T is not versioned", composed.Unwrap())
		}
		composed.Put(k, value(k))
		before, _ := composed.MVCCInfo()
		start := time.Now()
		composed.Put(k, value(k))
		took = append(took, time.Since(start))
		after, _ := composed.MVCCInfo()
		snap.Release()
		if after.Cloned == before.Cloned {
			return fmt.Errorf("a Put under a held snapshot did not clone")
		}
	}
	took.sort()
	res.setQ("index.mvcc.clone_ms_p50", float64(took.quantile(0.5))/1e6, "ms", len(took))
	return nil
}

// loadTimed Puts keys in order, then writes, timing each Put of writes —
// or of keys when writes is nil.
func loadTimed[B any](put func(uint64, string) B, ks, writes []uint64) samples {
	var out samples
	timeLoad := writes == nil
	for _, k := range ks {
		if !timeLoad {
			put(k, value(k))
			continue
		}
		start := time.Now()
		put(k, value(k))
		out = append(out, time.Since(start))
	}
	for _, k := range writes {
		start := time.Now()
		put(k, value(k))
		out = append(out, time.Since(start))
	}
	return out
}

func setPutQuantiles(res *result, layer string, s samples) {
	s.sort()
	res.setQ(layer+".put_p50_ns", float64(s.quantile(0.5)), "ns", len(s))
	res.setQ(layer+".put_p99_ns", float64(s.quantile(0.99)), "ns", len(s))
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink uint64

// kernels times the in-node search on node-sized pieces of the workload's
// keys: for every probe, the leaf-sized window of sorted keys it falls
// into, linearized as the Seg-Tree linearizes a node.
func kernels(res *result, in ladderInput) {
	node := segtree.DefaultConfig[uint64]().LeafCap
	var trees []*kary.Tree[uint64]
	var packed [][]byte
	var maxes []uint64
	for lo := 0; lo < len(in.keys); lo += node {
		w := in.keys[lo:min(lo+node, len(in.keys))]
		t := kary.Build(w, kary.DepthFirst)
		lin := t.Linearized()
		b := make([]byte, (len(lin)*8+15)/16*16)
		for i, k := range lin {
			keys.PutAt(b, i, k)
		}
		trees = append(trees, t)
		packed = append(packed, b)
		maxes = append(maxes, w[len(w)-1])
	}
	window := make([]int, len(in.probes))
	for i, p := range in.probes {
		window[i] = min(sort.Search(len(maxes), func(j int) bool { return maxes[j] >= p }), len(maxes)-1)
	}

	// The kernels take nanoseconds, so each sample is a batch of calls.
	var searchNs, maskNs []float64
	for lo := 0; lo+kernelBatch <= len(in.probes); lo += kernelBatch {
		start := time.Now()
		for i := lo; i < lo+kernelBatch; i++ {
			sink += uint64(trees[window[i]].Search(in.probes[i], bitmask.Popcount))
		}
		searchNs = append(searchNs, float64(time.Since(start))/kernelBatch)

		calls := 0
		start = time.Now()
		for i := lo; i < lo+kernelBatch; i++ {
			s := kary.Prepare(in.probes[i])
			b := packed[window[i]]
			for off := 0; off+16 <= len(b); off += 16 {
				sink += uint64(s.GtMask(b[off : off+16]))
			}
			calls += len(b) / 16
		}
		maskNs = append(maskNs, float64(time.Since(start))/float64(calls))
	}
	sort.Float64s(searchNs)
	sort.Float64s(maskNs)
	res.setQ("kary.search_ns", searchNs[len(searchNs)/2], "ns", len(searchNs)*kernelBatch)
	res.setQ("simd.gtmask_ns", maskNs[len(maskNs)/2], "ns", len(maskNs))
}

// batchAndScan times the composed index's LevelWise GetBatch per key and
// its range scan per item.
func batchAndScan(res *result, in ladderInput, composed *simdtree.InstrumentedIndex[uint64, string]) error {
	const batchSize = 16
	var perKey, perItem samples
	for lo := 0; lo+batchSize <= len(in.probes); lo += batchSize {
		start := time.Now()
		vs, found := composed.GetBatch(in.probes[lo : lo+batchSize])
		perKey = append(perKey, time.Since(start)/batchSize)
		for i := range vs {
			if want := in.present[lo+i]; (want == 1 && (!found[i] || !valueIs(in.probes[lo+i], vs[i]))) || (want == 0 && found[i]) {
				return fmt.Errorf("ladder: GetBatch of %d answered found=%v value=%q", in.probes[lo+i], found[i], vs[i])
			}
		}
	}
	for i := 0; i < len(in.probes); i += 8 {
		lo := in.probes[i]
		items := 0
		start := time.Now()
		composed.Scan(lo, in.scanHi(lo), func(uint64, string) bool {
			items++
			return items < scanLen
		})
		if items > 0 {
			perItem = append(perItem, time.Since(start)/time.Duration(items))
		}
	}
	perKey.sort()
	perItem.sort()
	res.setQ("index.batch.ns_per_key", float64(perKey.quantile(0.5)), "ns", len(perKey))
	res.setQ("index.scan.ns_per_item", float64(perItem.quantile(0.5)), "ns", len(perItem))
	return nil
}

// mvccPhase reports MVCC publication and shard balance over one phase
// that writes: before and after are the publisher's snapshots around it
// (before is the zero value for a phase starting at an empty index) and
// putMeanUs the mean Put latency inside the process that holds the index.
func mvccPhase(res *result, before, after obs.MVCCSnapshot, putMeanUs float64) {
	res.set("index.mvcc.clones", float64(after.Cloned-before.Cloned), "count")
	pub := histDelta(before.PublishLatency, after.PublishLatency)
	res.setQ("index.mvcc.publish_p99_us", pub.QuantileNanos(0.99)/1e3, "us", int(pub.Count))
	res.set("index.mvcc.lock_wait_us_mean", putMeanUs-us(pub.Mean()), "us")

	var total, most uint64
	for i, v := range after.Versions {
		prev := uint64(1)
		if i < len(before.Versions) {
			prev = before.Versions[i]
		}
		d := v - prev
		total += d
		most = max(most, d)
	}
	share := 0.0
	if total > 0 {
		share = float64(most) / float64(total)
	}
	res.set("index.sharded.max_shard_write_share", share, "ratio")
}

func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := after
	for i := range d.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	d.Count -= before.Count
	d.SumNanos -= before.SumNanos
	return d
}

// edge reports where a read's time goes outside the index: the index-side
// p50 as the Instrumented layer's histogram records it (segserve's /stats
// reads the same histogram), the client-observed p50 minus that, and how
// late an open-loop generator ran. A closed loop has no schedule, so its
// lateness and backlog are 0.
func edge(res *result, clientP50, indexP50 float64, late samples) {
	res.set("segserve.index_p50_us", indexP50, "us")
	res.set("segserve.edge_p50_us", clientP50-indexP50, "us")
	late.sort()
	res.setQ("driver.late_p99_us", us(late.quantile(0.99)), "us", len(late))
	if _, ok := res.metrics["driver.backlog"]; !ok {
		res.set("driver.backlog", 0, "count")
	}
}
