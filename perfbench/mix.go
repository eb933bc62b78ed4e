package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	simdtree "repro"
	"repro/internal/driver"
	"repro/internal/workload"
)

// The dense mix shared by mix-dense-zipf and serve-http-mix: the repo's
// own default traffic shape, over twice the preloaded key range so that
// writes also insert new keys in random order.
const (
	mixSpecText  = "read=70,write=20,scan=5,batch=5;dist=zipfian:0.99;keys=200000;clients=2;dur=1s;batchsize=16;scanlen=100"
	densePreload = 100_000
)

func mixSpec(seed int64, dur time.Duration) driver.Spec {
	s, err := driver.ParseSpec(mixSpecText)
	if err != nil {
		panic(err) // the spec text is a constant
	}
	s.Seed, s.Duration = seed, dur
	return s
}

type opKind int

const (
	opRead opKind = iota
	opWrite
	opScan
	opBatch
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "scan", "batch"}

// op is one generated mix operation.
type op struct {
	kind  opKind
	key   uint64
	batch []uint64
}

// mixGen draws the mix's operations from a seeded stream, the way
// internal/driver draws them: a weighted op kind, then keys from the
// spec's chooser.
type mixGen struct {
	spec driver.Spec
	rng  *rand.Rand
	ch   workload.Chooser
	cum  [numKinds]int
}

func newMixGen(spec driver.Spec, stream int64, ch workload.Chooser) *mixGen {
	g := &mixGen{spec: spec, rng: rand.New(rand.NewSource(spec.Seed*1_000_003 + stream)), ch: ch}
	sum := 0
	for i, w := range [numKinds]int{spec.Read, spec.Write, spec.Scan, spec.Batch} {
		sum += w
		g.cum[i] = sum
	}
	return g
}

func (g *mixGen) next() op {
	draw := g.rng.Intn(g.cum[numKinds-1])
	kind := opRead
	for g.cum[kind] <= draw {
		kind++
	}
	o := op{kind: kind, key: g.ch.Next(g.rng)}
	if kind == opBatch {
		o.batch = make([]uint64, g.spec.BatchSize)
		o.batch[0] = o.key
		for i := 1; i < len(o.batch); i++ {
			o.batch[i] = g.ch.Next(g.rng)
		}
	}
	return o
}

func newZipf(spec driver.Spec) workload.Chooser { return workload.NewZipfian(spec.Keys, spec.Theta) }

// mixTarget is a driver.Target that can also return the items of a range
// scan, which the oracle needs and driver.Target.Scan does not give.
type mixTarget interface {
	driver.Target[uint64, string]
	scanItems(ctx context.Context, lo, hi uint64, limit int) ([]kv, error)
	// callName names the layer entry point an op kind calls, for spans.
	callName(k opKind) string
}

// inproc is the in-process composition behind the facade.
type inproc struct {
	*driver.IndexTarget[uint64, string]
	ix *simdtree.InstrumentedIndex[uint64, string]
}

func newInproc(ix *simdtree.InstrumentedIndex[uint64, string]) *inproc {
	return &inproc{IndexTarget: driver.NewIndexTarget[uint64, string](ix), ix: ix}
}

func (t *inproc) scanItems(_ context.Context, lo, hi uint64, limit int) ([]kv, error) {
	items := make([]kv, 0, limit)
	t.ix.Scan(lo, hi, func(k uint64, v string) bool {
		items = append(items, kv{k, v})
		return len(items) < limit
	})
	return items, nil
}

func (t *inproc) callName(k opKind) string {
	return [numKinds]string{"index.Instrumented.Get", "index.Instrumented.Put", "index.Instrumented.Scan", "index.Instrumented.GetBatch"}[k]
}

// remote is segserve over HTTP: point ops through internal/segclient, scans
// through the same connection pool with the items parsed.
type remote struct {
	*driver.SegserveTarget
	hc   *http.Client
	base string
}

func (t *remote) scanItems(ctx context.Context, lo, hi uint64, limit int) ([]kv, error) {
	q := url.Values{"lo": {strconv.FormatUint(lo, 10)}, "hi": {strconv.FormatUint(hi, 10)}, "limit": {strconv.Itoa(limit)}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/scan?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scan: status %d", resp.StatusCode)
	}
	var items []kv
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		ks, v, ok := strings.Cut(sc.Text(), " ")
		k, err := strconv.ParseUint(ks, 10, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("scan: malformed line %q", sc.Text())
		}
		items = append(items, kv{k, v})
	}
	return items, sc.Err()
}

func (t *remote) callName(k opKind) string {
	return [numKinds]string{"segclient.Get", "segclient.Put", "segclient.Scan", "segclient.GetBatch"}[k]
}

// opResult is the timing and verdict of one executed op.
type opResult struct {
	start, end time.Time
	err        error
	problem    string
}

// execute runs o against t and judges the answer with the oracle. The
// returned start and end bracket only the call into t.
func execute(ctx context.Context, t mixTarget, or *denseOracle, o *op) opResult {
	var r opResult
	switch o.kind {
	case opRead:
		must := or.mustHave(o.key)
		r.start = time.Now()
		v, found, err := t.Get(ctx, o.key)
		r.end = time.Now()
		if r.err = err; err == nil {
			r.problem = or.checkGet(o.key, v, found, must)
		}
	case opWrite:
		or.started.add(o.key)
		r.start = time.Now()
		r.err = t.Put(ctx, o.key, value(o.key))
		r.end = time.Now()
		if r.err == nil {
			or.done.add(o.key)
		}
	case opScan:
		hi := o.key + uint64(scanLen) - 1
		must := make([]bool, scanLen)
		for i := range must {
			must[i] = or.mustHave(o.key + uint64(i))
		}
		r.start = time.Now()
		items, err := t.scanItems(ctx, o.key, hi, scanLen)
		r.end = time.Now()
		if r.err = err; err == nil {
			r.problem = or.checkScan(o.key, hi, scanLen, items, must)
		}
	case opBatch:
		must := make([]bool, len(o.batch))
		for i, k := range o.batch {
			must[i] = or.mustHave(k)
		}
		r.start = time.Now()
		vs, found, err := t.GetBatch(ctx, o.batch)
		r.end = time.Now()
		if r.err = err; err == nil && (len(vs) != len(o.batch) || len(found) != len(o.batch)) {
			r.problem = fmt.Sprintf("getbatch of %d keys returned %d/%d answers", len(o.batch), len(vs), len(found))
		} else if err == nil {
			for i, k := range o.batch {
				if p := or.checkGet(k, vs[i], found[i], must[i]); p != "" {
					r.problem = "batch: " + p
					break
				}
			}
		}
	}
	return r
}

const scanLen = 100

// recorder holds one client's per-kind latency samples, its tally and,
// in a traced run, its spans.
type recorder struct {
	lat   [numKinds]samples
	tally tally
	spans *spanLog
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.tally.merge(o.tally)
}

func (r *recorder) ops() int {
	n := 0
	for _, s := range r.lat {
		n += len(s)
	}
	return n
}

// closedLoop runs body on clients goroutines for dur; each client calls
// body again as soon as the previous call returns. reads preallocates
// room for that many read samples per client, so that a read-only phase
// allocates nothing and no collection runs while it is measured. A traced
// loop gives every client a span log. It returns the merged recorder, the
// span logs and the elapsed time.
func closedLoop(clients int, dur time.Duration, reads int, traced bool, body func(client int, rec *recorder)) (*recorder, []*spanLog, time.Duration) {
	var stop atomic.Bool
	recs := make([]*recorder, clients)
	for c := range recs {
		recs[c] = &recorder{}
		recs[c].lat[opRead] = make(samples, 0, reads)
	}
	runtime.GC()
	var logs []*spanLog
	start := time.Now()
	if traced {
		for c, r := range recs {
			r.spans = newSpanLog(start, c)
			logs = append(logs, r.spans)
		}
	}
	var wg sync.WaitGroup
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				body(c, recs[c])
			}
		}(c)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0], logs, elapsed
}
