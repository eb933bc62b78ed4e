package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// timing is when one open-loop op was due, when it was sent and when it
// finished.
type timing struct{ due, start, end time.Time }

// latency is measured from the due time, so the wait a stall imposes on
// the ops queued behind it counts against them.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// late is how long after its due time the op was sent.
func (t timing) late() time.Duration { return t.start.Sub(t.due) }

// openLoop issues n ops on a fixed schedule, op i due at epoch +
// i*interval, from workers goroutines (one per connection). A worker takes
// the next op in schedule order, sleeps until it is due if it is early,
// and runs it; an op already overdue is sent at once. Because the schedule
// never waits for replies, a stalled target delays every later op, and
// timing from the due time charges that delay to them instead of hiding
// it (no coordinated omission). do must be safe for concurrent use.
func openLoop(workers, n int, interval time.Duration, do func(i int)) (time.Time, []timing) {
	timings := make([]timing, n)
	var next atomic.Int64
	epoch := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := epoch.Add(time.Duration(i) * interval)
				sleepUntil(due)
				start := time.Now()
				do(i)
				timings[i] = timing{due: due, start: start, end: time.Now()}
			}
		}()
	}
	wg.Wait()
	return epoch, timings
}

// backlog counts the ops that were due within the schedule but had not
// been sent when its last op fell due — the queue the target left behind.
func backlog(epoch time.Time, n int, interval time.Duration, timings []timing) int {
	last := epoch.Add(time.Duration(n-1) * interval)
	b := 0
	for _, t := range timings {
		if t.start.After(last) && t.due.Before(last) {
			b++
		}
	}
	return b
}

// wakeEarly is how long before a due time the nanosleep ends; about the
// kernel's default 50 µs timer slack, so the final spin is short.
const wakeEarly = 60 * time.Microsecond

// sleepUntil returns at t. The runtime's timers wake an idle process with
// millisecond granularity, which would send a sub-millisecond schedule up
// to a millisecond late, so it sleeps with a nanosleep system call until
// shortly before t and yields the processor for the rest.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - wakeEarly; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
