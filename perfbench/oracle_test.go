package main

import (
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	var s samples
	for i := 1000; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	s.sort()
	for q, want := range map[float64]time.Duration{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestDenseOracleJudgesScans(t *testing.T) {
	o := newDenseOracle(10, 64)
	o.started.add(20)
	o.done.add(20)
	o.started.add(21) // a Put in flight: may be seen, need not be
	items := func(ks ...uint64) []kv {
		var out []kv
		for _, k := range ks {
			out = append(out, kv{k, value(k)})
		}
		return out
	}
	must := func(lo, hi uint64) []bool {
		m := make([]bool, hi-lo+1)
		for i := range m {
			m[i] = o.mustHave(lo + uint64(i))
		}
		return m
	}
	cases := []struct {
		name   string
		lo, hi uint64
		limit  int
		got    []kv
		wrong  bool
	}{
		{"complete", 8, 22, 100, items(8, 9, 20, 21), false},
		{"in-flight key omitted", 8, 22, 100, items(8, 9, 20), false},
		{"cut by limit", 5, 22, 2, items(5, 6), false},
		{"skips a preloaded key", 5, 22, 100, items(5, 7, 8, 9, 20), true},
		{"skips a written key", 8, 22, 100, items(8, 9), true},
		{"key never written", 8, 30, 100, items(8, 9, 20, 25), true},
		{"out of order", 0, 9, 100, items(0, 2, 1, 3, 4, 5, 6, 7, 8, 9), true},
		{"beyond limit", 0, 9, 3, items(0, 1, 2, 3), true},
		{"wrong value", 0, 1, 100, []kv{{0, "0"}, {1, "x"}}, true},
	}
	for _, c := range cases {
		got := o.checkScan(c.lo, c.hi, c.limit, c.got, must(c.lo, c.hi)) != ""
		if got != c.wrong {
			t.Errorf("%s: flagged=%v, want %v", c.name, got, c.wrong)
		}
	}
}

func TestDenseOracleJudgesGets(t *testing.T) {
	o := newDenseOracle(10, 64)
	if p := o.checkGet(3, "3", true, true); p != "" {
		t.Errorf("preloaded hit flagged: %s", p)
	}
	if o.checkGet(3, "", false, true) == "" {
		t.Error("miss of a preloaded key not flagged")
	}
	if o.checkGet(3, "4", true, true) == "" {
		t.Error("wrong value not flagged")
	}
	if o.checkGet(40, "40", true, false) == "" {
		t.Error("hit on a key never written not flagged")
	}
	if p := o.checkGet(40, "", false, false); p != "" {
		t.Errorf("miss of an absent key flagged: %s", p)
	}
}
