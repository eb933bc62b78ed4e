package main

import (
	"context"
	"time"

	simdtree "repro"
	"repro/internal/driver"
	"repro/internal/index"
)

// setupRepeats is how many times the short set-ups (the dense preload and
// the segserve spawn) run in one invocation; setup_s is their median.
const setupRepeats = 3

// loadDense builds the segserve composition and preloads keys
// 0..densePreload-1 in ascending order, as segserve -preload does.
func loadDense() (*simdtree.InstrumentedIndex[uint64, string], time.Duration) {
	start := time.Now()
	ix := simdtree.NewInstrumentedIndex[uint64, string](simdtree.WithShards(16))
	for k := uint64(0); k < densePreload; k++ {
		ix.Put(k, value(k))
	}
	return ix, time.Since(start)
}

// mixClient returns the closed-loop body that draws client c's op stream
// from gens[c], executes it against t and records latency, verdict and, in
// a traced phase, a root span per op with a child span around the layer
// call.
func mixClient(t mixTarget, or *denseOracle, gens []*mixGen) func(int, *recorder) {
	ctx := context.Background()
	return func(c int, rec *recorder) {
		o := gens[c].next()
		opStart := time.Now()
		r := execute(ctx, t, or, &o)
		rec.lat[o.kind] = append(rec.lat[o.kind], r.end.Sub(r.start))
		rec.tally.judge(r.err, r.problem)
		if rec.spans != nil {
			root := rec.spans.add("op."+kindNames[o.kind], 0, opStart, time.Now())
			rec.spans.add(t.callName(o.kind), root, r.start, r.end)
		}
	}
}

// reportMix sets the client-observed figures of a mix phase.
func reportMix(res *result, rec *recorder, elapsed time.Duration) {
	res.set("ops_per_s", float64(rec.ops())/elapsed.Seconds(), "ops/s")
	res.latencies("read", rec.lat[opRead], "99", "999")
	res.latencies("write", rec.lat[opWrite], "99", "999")
	res.latencies("scan", rec.lat[opScan], "99")
	res.latencies("batch", rec.lat[opBatch], "99")
	res.absorb(rec.tally)
}

// mixPhase runs the mix closed loop against ix with fresh op streams and a
// fresh oracle.
func mixPhase(spec driver.Spec, ix *simdtree.InstrumentedIndex[uint64, string], traced bool) (*recorder, []*spanLog, time.Duration) {
	ch := newZipf(spec)
	or := newDenseOracle(densePreload, spec.Keys+scanLen)
	gens := make([]*mixGen, spec.Clients)
	for c := range gens {
		gens[c] = newMixGen(spec, int64(c), ch)
	}
	return closedLoop(spec.Clients, spec.Duration, 0, traced, mixClient(newInproc(ix), or, gens))
}

func runMix(cfg config) (*result, error) {
	res := newResult()
	var ix *simdtree.InstrumentedIndex[uint64, string]
	var setups samples
	for i := 0; i < setupRepeats; i++ {
		var d time.Duration
		ix = nil // let the previous build go before the next one
		ix, d = loadDense()
		setups = append(setups, d)
	}
	setups.sort()
	res.set("setup_s", setups.quantile(0.5).Seconds(), "s")
	res.set("bytes_per_key", float64(ix.IndexStats().MemoryBytes)/float64(ix.Len()), "B")
	res.set("heap_mb", liveHeapMiB(), "MiB")

	spec := mixSpec(cfg.seed, cfg.seconds)
	rec, _, elapsed := mixPhase(spec, ix, false)
	reportMix(res, rec, elapsed)
	if !cfg.trace {
		return res, nil
	}
	return res, mixLayers(cfg, res, spec, ix)
}

// denseLadderInput is the ladder's data for the dense workloads: the
// preloaded keys, the first Get keys and write keys of the mix's seeded
// stream.
func denseLadderInput(spec driver.Spec) ladderInput {
	in := ladderInput{scanHi: func(lo uint64) uint64 { return lo + scanLen - 1 }}
	in.keys = make([]uint64, densePreload)
	for i := range in.keys {
		in.keys[i] = uint64(i)
	}
	g := newMixGen(spec, ladderStream, newZipf(spec))
	for len(in.probes) < denseLadderProbes || len(in.writes) < denseLadderWrites {
		o := g.next()
		switch {
		case o.kind == opRead && len(in.probes) < denseLadderProbes:
			in.probes = append(in.probes, o.key)
			want := int8(-1)
			if o.key < densePreload {
				want = 1
			}
			in.present = append(in.present, want)
		case o.kind == opWrite && len(in.writes) < denseLadderWrites:
			in.writes = append(in.writes, o.key)
		}
	}
	return in
}

const (
	// ladderStream picks a generator stream no client uses.
	ladderStream      = 1 << 20
	denseLadderProbes = 200_000
	denseLadderWrites = 50_000
)

// mixLayers is the traced half of mix-dense-zipf: the untraced phase has
// already run on ix; a fresh index replays the same seeded streams with
// spans, then the ladder runs on the dense keys.
func mixLayers(cfg config, res *result, spec driver.Spec, ix *simdtree.InstrumentedIndex[uint64, string]) error {
	clientP50 := res.metrics["read_p50_us"].Value
	edge(res, clientP50, ix.Histogram(index.OpGet).QuantileNanos(0.5)/1e3, nil)

	fresh, _ := loadDense()
	before, _ := fresh.MVCCInfo()
	rec, logs, _ := mixPhase(spec, fresh, true)
	after, _ := fresh.MVCCInfo()
	res.absorb(rec.tally)
	mvccPhase(res, before, after, us(rec.lat[opWrite].mean()))
	if err := traceOverhead(res, cfg, rec, logs, clientP50); err != nil {
		return err
	}
	return ladder(res, denseLadderInput(spec), fresh, clientP50)
}

// traceOverhead writes the traced phase's spans and reports how much the
// tracing moved the read median against the untraced phase.
func traceOverhead(res *result, cfg config, rec *recorder, logs []*spanLog, untracedP50 float64) error {
	n, err := writeSpans(cfg.spansDir, cfg.workload, logs)
	if err != nil {
		return err
	}
	res.set("trace.spans", float64(n), "count")
	reads := rec.lat[opRead]
	reads.sort()
	res.setQ("trace.overhead_read_p50_us", us(reads.quantile(0.5))-untracedP50, "us", len(reads))
	return nil
}
