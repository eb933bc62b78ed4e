// Command perfbench is the repository benchmark: it measures the index
// end to end on three seeded workloads and, in a separate traced run, the
// cost of every layer a lookup or write crosses.
//
//	go run . --workload read-1m-random --seed 1 --seconds 5 --trace 0
//	go run . --workload all --seed 1 --seconds 5 --trace 0
//
// Workloads:
//
//   - read-1m-random: 1M distinct random uint64 keys loaded in ascending
//     order into the segserve composition (Instrumented, 16 shards of
//     versioned Seg-Trees); two closed-loop clients issue point Gets, half
//     of them for absent keys.
//   - mix-dense-zipf: keys 0..99,999 preloaded into the same composition;
//     two closed-loop clients run the read=70,write=20,scan=5,batch=5 mix
//     over 200k zipfian keys.
//   - serve-http-mix: the same mix sent open loop over at most two
//     connections to a cmd/segserve child process.
//
// Every answer is checked against a result oracle (see oracle.go); a wrong
// answer makes the run exit nonzero. The last line of standard output is
// one JSON object: correct, attempted, failed and metrics. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (see layers.go). Lines before it carry the environment and a readable
// table with the sample count behind every quantile.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	segserve string
	spansDir string
}

// workloads maps each workload name to its runner, in the order
// --workload all runs them.
var workloads = []struct {
	name string
	run  func(config) (*result, error)
}{
	{"read-1m-random", runRead},
	{"mix-dense-zipf", runMix},
	{"serve-http-mix", runServe},
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 5, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.segserve, "segserve", ".bench_build/segserve", "path of the built cmd/segserve binary")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	fmt.Printf("env %s\n", mustJSON(environment(cfg.seed)))
	if cfg.workload == "all" {
		return runAll(cfg)
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			res, err := w.run(cfg)
			if err != nil {
				return err
			}
			return emit(cfg, res)
		}
	}
	return fmt.Errorf("unknown workload %q", cfg.workload)
}

// runAll runs every workload in turn and prints one combined result whose
// metric names are prefixed with the workload name.
func runAll(cfg config) error {
	total := &result{correct: true, metrics: map[string]metric{}}
	for _, w := range workloads {
		c := cfg
		c.workload = w.name
		res, err := w.run(c)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(w.name)
		total.correct = total.correct && res.correct
		total.attempted += res.attempted
		total.failed += res.failed
		for name, m := range res.selected(cfg.trace) {
			total.metrics[w.name+"."+name] = m
		}
	}
	return total.finish(total.metrics)
}

// emit prints a workload's table and its result line.
func emit(cfg config, res *result) error {
	res.print(cfg.workload)
	return res.finish(res.selected(cfg.trace))
}

// finish prints the result line with the given metrics and reports a
// wrong answer as an error, so the process exits nonzero after the
// result is out.
func (r *result) finish(metrics map[string]metric) error {
	fmt.Println(mustJSON(map[string]any{
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	}))
	if !r.correct {
		return errors.New("wrong answers observed; see the oracle lines above")
	}
	return nil
}

// metric is one reported figure with its unit and, for quantiles, the
// number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is what one workload run reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	notes     []string
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) setQ(name string, value float64, unit string, samples int) {
	r.metrics[name] = metric{Value: value, Unit: unit, samples: samples}
}

// absorb adds an operation tally and the oracle's verdict.
func (r *result) absorb(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed + t.wrong
	if t.wrong > 0 {
		r.correct = false
	}
	r.notes = append(r.notes, t.firstProblems...)
}

// endToEnd names the bounded end-to-end metrics: what an untraced run
// reports. Every other metric a run computes is per-layer and is reported
// by the traced run; the readable table shows both.
var endToEnd = map[string]bool{
	"setup_s": true, "read_p50_us": true, "write_p50_us": true, "bytes_per_key": true, "heap_mb": true,
}

// selected returns the metrics of the result line: the end-to-end ones
// for an untraced run, the per-layer ones for a traced run.
func (r *result) selected(traced bool) map[string]metric {
	out := map[string]metric{}
	for n, m := range r.metrics {
		if endToEnd[n] != traced {
			out[n] = m
		}
	}
	return out
}

// print writes the readable table: every metric by name and unit, with
// its sample count where it is a quantile, plus the error rate.
func (r *result) print(workload string) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if m.samples > 0 {
			fmt.Printf("%s %-34s %14.4f %-6s n=%d\n", workload, n, m.Value, m.Unit, m.samples)
		} else {
			fmt.Printf("%s %-34s %14.4f %s\n", workload, n, m.Value, m.Unit)
		}
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%s %-34s %14.6f ratio attempted=%d failed=%d\n", workload, "error_rate", rate, r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Printf("%s oracle: %s\n", workload, n)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
