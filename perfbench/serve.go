package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/segclient"
)

const (
	// serveRate is the fixed offered rate of serve-http-mix, about a third
	// of the ~9k ops/s two closed-loop segload connections sustained
	// against default segserve on a 2-vCPU host. At 4000 ops/s one run in
	// ten fell behind for seconds: draining the queue a clone stall builds
	// packs requests so densely that they cause further stalls.
	serveRate = 3200
	// serveConns bounds the client to two connections, one per worker.
	serveConns = 2
)

// server is one cmd/segserve child process.
type server struct {
	cmd *exec.Cmd
	// done is closed once the process has exited, so stop may run twice.
	done   chan struct{}
	base   string
	hc     *http.Client
	client *segclient.Client
}

// startServer spawns segserve with default flags except a loopback
// address and the dense preload, and returns once /readyz answers.
func startServer(bin string) (*server, time.Duration, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, 0, fmt.Errorf("segserve binary: %w (run.py builds it)", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-preload", strconv.Itoa(densePreload))
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start segserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{}), base: "http://" + addr}
	go func() {
		cmd.Wait() // the exit status of a stopped server is of no interest
		close(s.done)
	}()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		IdleConnTimeout:     time.Minute,
	}}
	s.client = segclient.New(s.base, segclient.WithHTTPClient(s.hc))
	if err := s.client.WaitReady(context.Background(), time.Minute); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// stop terminates the server and waits for it to exit.
func (s *server) stop() {
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) target() *remote {
	return &remote{SegserveTarget: driver.NewSegserveTarget(s.client), hc: s.hc, base: s.base}
}

func (s *server) getBody(path string) ([]byte, error) {
	resp, err := s.hc.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// heapMiB forces a collection in the server, then reads its live heap
// objects from /metrics.
func (s *server) heapMiB() (float64, error) {
	if _, err := s.getBody("/debug/pprof/heap?gc=1"); err != nil {
		return 0, err
	}
	body, err := s.getBody("/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "segserve_go_heap_objects_bytes "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f / (1 << 20), err
		}
	}
	return 0, errors.New("/metrics has no segserve_go_heap_objects_bytes")
}

// mvcc reads the server's snapshot-publication state.
func (s *server) mvcc() (obs.MVCCSnapshot, error) {
	var mv obs.MVCCSnapshot
	body, err := s.getBody("/debug/snapshot")
	if err == nil {
		err = json.Unmarshal(body, &mv)
	}
	return mv, err
}

// serveOps generates the whole open-loop schedule's ops from one seeded
// stream, so a traced run replays exactly the same requests.
func serveOps(spec driver.Spec) []op {
	g := newMixGen(spec, 0, newZipf(spec))
	ops := make([]op, int(spec.Duration.Seconds()*serveRate))
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// servePhase sends ops to s on the open-loop schedule. A traced phase
// records, per op, a root span from its due time, the wait for the
// schedule and the client call.
func servePhase(s *server, spec driver.Spec, ops []op, traced bool) (*recorder, []*spanLog, []timing, time.Time) {
	t := s.target()
	or := newDenseOracle(densePreload, spec.Keys+scanLen)
	ctx := context.Background()
	results := make([]opResult, len(ops))
	epoch, timings := openLoop(serveConns, len(ops), time.Second/serveRate, func(i int) {
		results[i] = execute(ctx, t, or, &ops[i])
	})
	rec := &recorder{}
	var logs []*spanLog
	if traced {
		rec.spans = newSpanLog(epoch, 0)
		logs = []*spanLog{rec.spans}
	}
	for i, r := range results {
		o, tm := &ops[i], timings[i]
		rec.lat[o.kind] = append(rec.lat[o.kind], tm.latency())
		rec.tally.judge(r.err, r.problem)
		root := rec.spans.add("op."+kindNames[o.kind], 0, tm.due, tm.end)
		rec.spans.add("driver.schedule_wait", root, tm.due, tm.start)
		rec.spans.add(t.callName(o.kind), root, r.start, r.end)
	}
	return rec, logs, timings, epoch
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	var s *server
	var setups samples
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		var took time.Duration
		var err error
		if s, took, err = startServer(cfg.segserve); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	// serveLayers may swap a fresh server into s; stop whichever runs last.
	defer func() { s.stop() }()
	setups.sort()
	res.set("setup_s", setups.quantile(0.5).Seconds(), "s")
	stats, err := s.client.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	res.set("bytes_per_key", stats["memory_bytes"]/stats["keys"], "B")
	heap, err := s.heapMiB()
	if err != nil {
		return nil, err
	}
	res.set("heap_mb", heap, "MiB")

	spec := mixSpec(cfg.seed, cfg.seconds)
	ops := serveOps(spec)
	rec, _, timings, epoch := servePhase(s, spec, ops, false)
	elapsed := time.Duration(0)
	for _, tm := range timings {
		elapsed = max(elapsed, tm.end.Sub(epoch))
	}
	reportMix(res, rec, elapsed)
	res.set("driver.backlog", float64(backlog(epoch, len(ops), time.Second/serveRate, timings)), "count")
	if !cfg.trace {
		return res, nil
	}
	return res, serveLayers(cfg, res, s, spec, ops, timings)
}

// serveLayers is the traced half of serve-http-mix: the server-side read
// median against the client's, generator lateness, the same schedule
// replayed with spans on a fresh server, and the in-process ladder on the
// dense keys the server holds.
func serveLayers(cfg config, res *result, s *server, spec driver.Spec, ops []op, timings []timing) error {
	ctx := context.Background()
	stats, err := s.client.Stats(ctx)
	if err != nil {
		return err
	}
	late := make(samples, len(timings))
	for i, tm := range timings {
		late[i] = tm.late()
	}
	clientP50 := res.metrics["read_p50_us"].Value
	edge(res, clientP50, stats["op_get_p50_ns"]/1e3, late)

	s.stop()
	fresh, _, err := startServer(cfg.segserve)
	if err != nil {
		return err
	}
	*s = *fresh
	before, err := s.mvcc()
	if err != nil {
		return err
	}
	stats0, err := s.client.Stats(ctx)
	if err != nil {
		return err
	}
	rec, logs, _, _ := servePhase(s, spec, ops, true)
	after, err := s.mvcc()
	if err != nil {
		return err
	}
	stats1, err := s.client.Stats(ctx)
	if err != nil {
		return err
	}
	res.absorb(rec.tally)
	// The Put mean inside the server, from its Instrumented histogram,
	// over the replay only.
	puts := stats1["op_put_count"] - stats0["op_put_count"]
	putMean := (stats1["op_put_count"]*stats1["op_put_mean_ns"] - stats0["op_put_count"]*stats0["op_put_mean_ns"]) / puts / 1e3
	mvccPhase(res, before, after, putMean)
	if err := traceOverhead(res, cfg, rec, logs, clientP50); err != nil {
		return err
	}
	ix, _ := loadDense()
	return ladder(res, denseLadderInput(spec), ix, clientP50)
}
