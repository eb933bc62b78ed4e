package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call recorded by a traced run: a root span per
// operation and child spans around the calls it made into a layer. Spans
// of one operation share the root's ID as their Parent.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	// Start and End are nanoseconds since the traced phase began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// maxSpansPerClient bounds the memory and file size a traced run spends
// on spans; later operations are still executed and timed, only not kept
// as spans.
const maxSpansPerClient = 50_000

// spanLog is one client's in-memory span buffer. A nil *spanLog records
// nothing, which is how untraced phases run.
type spanLog struct {
	epoch  time.Time
	client int64
	seq    int64
	spans  []span
}

func newSpanLog(epoch time.Time, client int) *spanLog {
	return &spanLog{epoch: epoch, client: int64(client)}
}

// add records a span and returns its ID (0 when dropped or untraced).
func (l *spanLog) add(name string, parent int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	if len(l.spans) >= maxSpansPerClient {
		return 0
	}
	l.seq++
	id := l.client<<48 | l.seq
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	return id
}

// writeSpans writes every client's spans as JSON lines to
// dir/<workload>.spans.jsonl once the traced run is over, and returns the
// number written.
func writeSpans(dir, workload string, logs []*spanLog) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, l := range logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("write spans: %w", err)
	}
	return n, nil
}
