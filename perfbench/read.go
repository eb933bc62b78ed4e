package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	simdtree "repro"
	"repro/internal/driver"
	"repro/internal/index"
	"repro/internal/obs"
)

const (
	readKeys = 1_000_000
	// readSetups is the number of 1M-key loads a run makes; setup_s is
	// their median and the write figures pool their Puts. One load is
	// 1M Puts over about 16 s on a 2-vCPU host, which averages on its own;
	// a second would double the run and with it the host drift a set of
	// runs is exposed to.
	readSetups       = 1
	readLadderProbes = 200_000
	readClients      = 2
	// readReservePerSecond is the read samples preallocated per client and
	// measured second, above the ~300k Gets a client completes per second
	// on a 2-vCPU host.
	readReservePerSecond = 450_000
)

// readData is the seeded input of read-1m-random: distinct uniform random
// keys, ascending, and a pool of keys known to be absent.
type readData struct {
	keys   []uint64
	absent []uint64
}

func newReadData(seed int64) readData {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]uint64, 0, readKeys)
	for len(ks) < readKeys {
		for len(ks) < readKeys {
			ks = append(ks, rng.Uint64())
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
	}
	absent := make([]uint64, 0, readKeys)
	for len(absent) < readKeys {
		k := rng.Uint64()
		if _, found := slices.BinarySearch(ks, k); !found {
			absent = append(absent, k)
		}
	}
	return readData{keys: ks, absent: absent}
}

// probe draws the next point lookup: a loaded key or an absent one with
// equal probability.
func (d *readData) probe(rng *rand.Rand) (k uint64, present bool) {
	r := rng.Uint64()
	if r&1 == 0 {
		return d.keys[(r>>1)%uint64(len(d.keys))], true
	}
	return d.absent[(r>>1)%uint64(len(d.absent))], false
}

func (d *readData) clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))
}

// loadRead builds the segserve composition and Puts every key in
// ascending order, timing each Put.
func loadRead(d *readData) (*simdtree.InstrumentedIndex[uint64, string], time.Duration, samples) {
	puts := make(samples, 0, len(d.keys))
	start := time.Now()
	ix := simdtree.NewInstrumentedIndex[uint64, string](simdtree.WithShards(16))
	for _, k := range d.keys {
		t0 := time.Now()
		ix.Put(k, value(k))
		puts = append(puts, time.Since(t0))
	}
	return ix, time.Since(start), puts
}

func checkRead(k uint64, v string, found, present bool) string {
	if found != present || (found && !valueIs(k, v)) {
		return fmt.Sprintf("get %d answered found=%v value=%q, want found=%v", k, found, v, present)
	}
	return ""
}

// readPhase runs the measured closed-loop Get phase.
func readPhase(cfg config, d *readData, t *driver.IndexTarget[uint64, string], traced bool) (*recorder, []*spanLog, time.Duration) {
	rngs := make([]*rand.Rand, readClients)
	for c := range rngs {
		rngs[c] = d.clientRNG(cfg.seed, c)
	}
	ctx := context.Background()
	reads := readReservePerSecond * int(cfg.seconds/time.Second)
	return closedLoop(readClients, cfg.seconds, reads, traced, func(c int, rec *recorder) {
		k, present := d.probe(rngs[c])
		start := time.Now()
		v, found, err := t.Get(ctx, k)
		end := time.Now()
		rec.lat[opRead] = append(rec.lat[opRead], end.Sub(start))
		problem := ""
		if err == nil {
			problem = checkRead(k, v, found, present)
		}
		rec.tally.judge(err, problem)
		if rec.spans != nil {
			root := rec.spans.add("op.read", 0, start, time.Now())
			rec.spans.add("index.Instrumented.Get", root, start, end)
		}
	})
}

// sidePhases times 100-item scans from random loaded keys, then 16-key
// batches of the probe mix, each closed loop for a tenth of the measured
// phase.
func sidePhases(cfg config, d *readData, ix *simdtree.InstrumentedIndex[uint64, string]) *recorder {
	dur := max(cfg.seconds/10, time.Second)
	rngs := make([]*rand.Rand, readClients)
	items := make([][]kv, readClients)
	for c := range rngs {
		rngs[c] = d.clientRNG(cfg.seed, readClients+c)
		items[c] = make([]kv, 0, scanLen)
	}
	scans, _, _ := closedLoop(readClients, dur, 0, false, func(c int, rec *recorder) {
		at := rngs[c].Intn(len(d.keys))
		got := items[c][:0]
		start := time.Now()
		ix.Scan(d.keys[at], math.MaxUint64, func(k uint64, v string) bool {
			got = append(got, kv{k, v})
			return len(got) < scanLen
		})
		rec.lat[opScan] = append(rec.lat[opScan], time.Since(start))
		rec.tally.judge(nil, checkReadScan(d, at, got))
	})
	batches, _, _ := closedLoop(readClients, dur, 0, false, func(c int, rec *recorder) {
		var batch [16]uint64
		var want [16]bool
		for j := range batch {
			batch[j], want[j] = d.probe(rngs[c])
		}
		start := time.Now()
		vs, found := ix.GetBatch(batch[:])
		rec.lat[opBatch] = append(rec.lat[opBatch], time.Since(start))
		problem := ""
		for j, k := range batch {
			if problem = checkRead(k, vs[j], found[j], want[j]); problem != "" {
				break
			}
		}
		rec.tally.judge(nil, problem)
	})
	scans.merge(batches)
	return scans
}

// checkReadScan: a scan from the at-th loaded key must return exactly the
// next loaded keys, ascending, up to the limit.
func checkReadScan(d *readData, at int, items []kv) string {
	want := d.keys[at:min(at+scanLen, len(d.keys))]
	if len(items) != len(want) {
		return fmt.Sprintf("scan from %d returned %d items, want %d", want[0], len(items), len(want))
	}
	for i, it := range items {
		if it.k != want[i] || !valueIs(it.k, it.v) {
			return fmt.Sprintf("scan from %d item %d is %d=%q, want %d", want[0], i, it.k, it.v, want[i])
		}
	}
	return ""
}

// setUpRead loads the index loads times and reports setup_s and the write
// figures; on this workload those are the load's Puts: ascending random
// keys spread over all shards, with no concurrent readers. The first build
// is the one measured, so it is laid out in a fresh heap; later builds only
// time the set-up. It returns the measured index and the mean Put latency.
func setUpRead(res *result, d *readData, loads int) (*simdtree.InstrumentedIndex[uint64, string], float64) {
	var ix *simdtree.InstrumentedIndex[uint64, string]
	var setups, puts samples
	for i := 0; i < loads; i++ {
		built, took, p := loadRead(d)
		if ix == nil {
			ix = built
		}
		setups, puts = append(setups, took), append(puts, p...)
	}
	setups.sort()
	res.set("setup_s", setups.quantile(0.5).Seconds(), "s")
	res.latencies("write", puts, "99", "999")
	return ix, us(puts.mean())
}

func runRead(cfg config) (*result, error) {
	d := newReadData(cfg.seed)
	res := newResult()
	ix, putMeanUs := setUpRead(res, &d, readSetups)
	res.set("bytes_per_key", float64(ix.IndexStats().MemoryBytes)/float64(ix.Len()), "B")
	res.set("heap_mb", liveHeapMiB(), "MiB")

	t := driver.NewIndexTarget[uint64, string](ix)
	rec, _, elapsed := readPhase(cfg, &d, t, false)
	res.set("ops_per_s", float64(rec.ops())/elapsed.Seconds(), "ops/s")
	res.latencies("read", rec.lat[opRead], "99", "999")
	res.absorb(rec.tally)
	side := sidePhases(cfg, &d, ix)
	res.latencies("scan", side.lat[opScan], "99")
	res.latencies("batch", side.lat[opBatch], "99")
	res.absorb(side.tally)
	if !cfg.trace {
		return res, nil
	}
	return res, readLayers(cfg, res, &d, ix, t, putMeanUs)
}

// readLayers is the traced half of read-1m-random: the same Get stream
// replayed with spans, MVCC figures over the load (putMeanUs is its mean
// Put latency), and the ladder on the 1M keys.
func readLayers(cfg config, res *result, d *readData, ix *simdtree.InstrumentedIndex[uint64, string],
	t *driver.IndexTarget[uint64, string], putMeanUs float64) error {

	clientP50 := res.metrics["read_p50_us"].Value
	edge(res, clientP50, ix.Histogram(index.OpGet).QuantileNanos(0.5)/1e3, nil)

	rec, logs, _ := readPhase(cfg, d, t, true)
	res.absorb(rec.tally)
	if err := traceOverhead(res, cfg, rec, logs, clientP50); err != nil {
		return err
	}
	after, _ := ix.MVCCInfo()
	mvccPhase(res, obs.MVCCSnapshot{}, after, putMeanUs)

	in := ladderInput{keys: d.keys, scanHi: func(uint64) uint64 { return math.MaxUint64 }}
	rng := d.clientRNG(cfg.seed, ladderStream)
	for len(in.probes) < readLadderProbes {
		k, present := d.probe(rng)
		want := int8(0)
		if present {
			want = 1
		}
		in.probes = append(in.probes, k)
		in.present = append(in.present, want)
	}
	return ladder(res, in, ix, clientP50)
}
