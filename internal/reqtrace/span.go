package reqtrace

import (
	"time"

	"repro/internal/trace"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one timed annotation on a span — a point in the request's
// lifetime worth remembering ("descent traced", "breaker tripped").
type Event struct {
	// At is the event time as an offset from the span start, so events
	// order and read naturally next to Duration.
	At   time.Duration `json:"at_ns"`
	Name string        `json:"name"`
}

// Span is one recorded request (or one driver operation): identity,
// timing, attributes, events, and — when the request resolved through an
// index descent — the SIMD-level trace of that descent, so the span links
// HTTP latency to the paper's per-search comparison counts.
//
// Like trace.Trace, a Span is owned by one goroutine (the request
// handler or driver client that started it) and every method is safe on
// a nil receiver: unsampled paths hold a nil *Span and record nothing.
//
// A span is mutable only until Tracer.Finish rings it: trace.Ring.Add
// stores the pointer, concurrent /debug/requests readers load it
// lock-free, and no write may follow. The publishguard analyzer checks that
// frozen-after-publish discipline inside this package.
//
//simdtree:published
type Span struct {
	TraceID TraceID `json:"trace_id"`
	SpanID  SpanID  `json:"span_id"`
	// Parent is the causing span: the caller's span ID from an incoming
	// traceparent (Remote true), a local parent, or zero for a root.
	Parent SpanID `json:"parent_span_id,omitempty"`
	// Remote reports that Parent arrived over the wire — this span
	// continues a trace another process started.
	Remote bool `json:"remote,omitempty"`
	// Name labels the work: the HTTP path on a server span, the op kind
	// ("read", "write", ...) on a driver root span.
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// Duration is set by Finish (via Tracer.Finish).
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []Event       `json:"events,omitempty"`
	// Descent is the index-level trace of the lookup this request
	// performed, attached by the tier that ran it — the bridge from
	// request identity to SIMD-level evidence.
	Descent *trace.Trace `json:"descent,omitempty"`
}

// maxAttrs and maxEvents bound a span against a misbehaving caller, the
// same defensive cap trace.MaxSteps applies to descents.
const (
	maxAttrs  = 64
	maxEvents = 64
)

// Context returns the span's propagation identity. Spans only exist on
// the sampled path, so the context always carries the sampled flag; a
// nil span returns the invalid zero context.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Sampled: true}
}

// SetAttr appends one key/value annotation.
//
//simdtree:prepublish
func (sp *Span) SetAttr(key, value string) {
	if sp == nil || len(sp.Attrs) >= maxAttrs {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// Event appends one timed annotation at the current offset from Start.
//
//simdtree:prepublish
func (sp *Span) Event(name string) {
	if sp == nil || len(sp.Events) >= maxEvents {
		return
	}
	sp.Events = append(sp.Events, Event{At: time.Since(sp.Start), Name: name})
}

// AttachDescent links the index descent this request performed to the
// span and marks the moment with an event. A nil tr is ignored, so
// callers can pass a trace unconditionally from a traced branch.
//
//simdtree:prepublish
func (sp *Span) AttachDescent(tr *trace.Trace) {
	if sp == nil || tr == nil {
		return
	}
	sp.Descent = tr
	sp.Event("descent attached")
}

// finish stamps the duration; Tracer.Finish calls it before ringing the
// span.
//
//simdtree:prepublish
func (sp *Span) finish() {
	if sp == nil {
		return
	}
	sp.Duration = time.Since(sp.Start)
}
