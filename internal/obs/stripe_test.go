package obs

import (
	"sync"
	"testing"
	"time"
)

// TestStripeSpreadsEqualDepthGoroutines pins that the stripe hash uses
// the stack address above the in-stack offset: 64 live goroutines asking
// from frames of equal depth must land on more than 16 of the 32 counter
// shards. Taking the shard from address bits 10 and up reached only 16,
// because 2 KiB-aligned stacks put equal-depth frames at the same bit 10.
func TestStripeSpreadsEqualDepthGoroutines(t *testing.T) {
	const goroutines = 64
	got := make([]int, goroutines)
	var asked, done sync.WaitGroup
	release := make(chan struct{})
	asked.Add(goroutines)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			got[g] = stripe(numShards)
			asked.Done()
			<-release // keep this stack live so no other goroutine reuses it
		}(g)
	}
	asked.Wait()
	close(release)
	done.Wait()
	seen := map[int]bool{}
	for _, s := range got {
		if s < 0 || s >= numShards {
			t.Fatalf("stripe %d outside [0,%d)", s, numShards)
		}
		seen[s] = true
	}
	if len(seen) <= 16 {
		t.Fatalf("%d goroutines covered %d of %d stripes, want more than 16", goroutines, len(seen), numShards)
	}
}

// TestStripedHistogramExact pins that striping loses nothing: concurrent
// observations merge into exact counts, sums and buckets, and Reset
// zeroes every stripe.
func TestStripedHistogramExact(t *testing.T) {
	var h StripedHistogram
	const goroutines, each = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Read()
	if s.Count != goroutines*each {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*each)
	}
	if want := uint64(each * goroutines * (goroutines + 1) / 2); s.SumNanos != want {
		t.Fatalf("SumNanos = %d, want %d", s.SumNanos, want)
	}
	var plain Histogram
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			plain.Observe(time.Duration(g + 1))
		}
	}
	if p := plain.Read(); s != p {
		t.Fatalf("striped snapshot %+v differs from the unstriped %+v", s, p)
	}
	h.Reset()
	for i := range h.stripes {
		if c := h.stripes[i].Read(); c.Count != 0 || c.SumNanos != 0 {
			t.Fatalf("stripe %d holds %+v after Reset", i, c)
		}
	}
}

// TestAttachDetach pins the attachment protocol: attaching the active
// destination writes nothing and displaces nothing, attaching over no
// destination installs without anything to restore, and attaching over
// another destination displaces it until Detach.
func TestAttachDetach(t *testing.T) {
	prev := Disable()
	defer Enable(prev)
	var a, b Counters
	if d := Attach(&a); d != nil || Active() != &a {
		t.Fatalf("Attach over none displaced %p, active %p", d, Active())
	}
	Detach(&a, nil)
	if Active() != &a {
		t.Fatal("Detach with nothing displaced must leave the destination attached")
	}
	if d := Attach(&a); d != nil {
		t.Fatalf("re-Attach of the active destination displaced %p", d)
	}
	d := Attach(&b)
	if d != &a || Active() != &b {
		t.Fatalf("Attach over a displaced %p, active %p", d, Active())
	}
	Detach(&b, d)
	if Active() != &a {
		t.Fatal("Detach did not restore the displaced destination")
	}
	// A destination changed meanwhile is left alone.
	d = Attach(&b)
	Enable(nil)
	Detach(&b, d)
	if Active() != nil {
		t.Fatal("Detach overwrote a destination enabled after Attach")
	}
}
