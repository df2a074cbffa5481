package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is a lightweight per-query trace: a start time plus the phase
// spans recorded against it (parse → prepare/closure → solve → stream
// on the query path). A Trace is carried through the evaluation via
// the context (WithTrace / TraceFrom); layers that see no trace pay a
// single nil check. All methods are safe on a nil receiver — they do
// nothing — so instrumentation sites never branch.
//
// A Trace is safe for concurrent use: any goroutine carrying the
// context may record spans — an engine layer and the HTTP handler
// serving its rows need not coordinate.
type Trace struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// Span is one recorded phase: its name, its start offset from the
// trace's creation, and its duration.
type Span struct {
	Name     string
	Offset   time.Duration
	Duration time.Duration
}

// NewTrace starts a trace now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Start returns the trace's creation time (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.t0
}

var noopEnd = func() {}

// StartSpan begins a phase span and returns the function that ends it.
// Typical use:
//
//	defer obs.TraceFrom(ctx).StartSpan("prepare")()
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return noopEnd
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Offset: start.Sub(t.t0), Duration: end.Sub(start)})
		t.mu.Unlock()
	}
}

// AddSpan records an externally measured phase.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Offset: start.Sub(t.t0), Duration: d})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in start order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// String renders the spans as "name=duration" pairs in start order —
// the form the slow-query log dumps.
func (t *Trace) String() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return ""
	}
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = fmt.Sprintf("%s=%s", s.Name, s.Duration.Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}

type traceKey struct{}

// WithTrace attaches a trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. The nil result
// is usable: every Trace method no-ops on nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
