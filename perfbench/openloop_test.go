package main

import (
	"testing"
	"time"
)

// A target that stalls once must inflate the due-time latency of the ops
// scheduled behind the stall, not only of the op that stalled: the
// schedule keeps running, so those ops are sent late and the lateness is
// charged to them.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const (
		n        = 40
		interval = time.Millisecond
		stall    = 30 * time.Millisecond
		stalled  = 5
	)
	epoch, timings := openLoop(1, n, interval, func(i int) {
		if i == stalled {
			time.Sleep(stall)
		}
	})
	after := timings[stalled+1]
	if after.late() < stall/2 {
		t.Fatalf("op after the stall was sent %v late, want at least %v", after.late(), stall/2)
	}
	if after.latency() < stall/2 {
		t.Fatalf("op after the stall has due-time latency %v, want at least %v", after.latency(), stall/2)
	}
	if service := after.end.Sub(after.start); service > stall/4 {
		t.Fatalf("op after the stall took %v itself; the test needs a fast target", service)
	}
	// Ops due during the stall but sent after it are each charged their wait.
	charged := 0
	for _, tm := range timings[stalled+1:] {
		if tm.latency() >= 5*interval {
			charged++
		}
	}
	if charged < 10 {
		t.Fatalf("only %d ops behind the stall show its delay, want at least 10", charged)
	}
	if b := backlog(epoch, n, interval, timings); b != 0 {
		t.Fatalf("backlog %d after the schedule caught up, want 0", b)
	}
}

func TestOpenLoopRunsEveryOpOnce(t *testing.T) {
	const n = 200
	seen := make([]int32, n)
	_, timings := openLoop(2, n, 10*time.Microsecond, func(i int) { seen[i]++ })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("op %d ran %d times", i, c)
		}
		if timings[i].start.Before(timings[i].due) {
			t.Fatalf("op %d sent before it was due", i)
		}
	}
}
