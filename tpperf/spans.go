package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// (an HTTP request, a session, a plan cell) share Trace; Parent is the
// ID of the span that caused this one (0 for a root).
type Span struct {
	Name   string
	Trace  uint64
	ID     uint64
	Parent uint64
	Start  time.Time
	End    time.Time
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced state: every method is a no-op, so the timed code paths are
// identical apart from the nil checks.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  uint64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// NewID reserves a span ID, so a span's children can name it as their
// parent before it ends.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Add records a finished span, assigning an ID when it has none.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, viewable in chrome://tracing or Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// WriteChrome writes the spans as a Chrome trace: one row per trace ID,
// times in microseconds from the tracer's creation.
func (t *Tracer) WriteChrome(path string) error {
	spans := t.Spans()
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Trace,
			Ts:   float64(s.Start.Sub(t.origin)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]uint64{"trace": s.Trace, "span": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durationsMs returns the durations in milliseconds of the spans named
// name.
func durationsMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}
