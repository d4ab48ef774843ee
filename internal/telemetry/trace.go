package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one trace record: a span begin ("b") or end ("e"). The JSONL
// export writes one Event per line. Wall timestamps are Unix nanoseconds;
// spans whose work lives on the simulated clock additionally carry
// sim-time stamps (Unix nanoseconds of the simulated instant), following
// the repository's stamping rule: sim-time where available, wall-time
// everywhere and always.
type Event struct {
	// Ev is "b" (begin) or "e" (end).
	Ev string `json:"ev"`
	// ID identifies the span; begin and end share it.
	ID int64 `json:"id"`
	// Parent is the enclosing span's ID (0 = root).
	Parent int64 `json:"parent,omitempty"`
	// Name is the span's operation name (begin events only).
	Name string `json:"name,omitempty"`
	// WallNs is the wall-clock timestamp in Unix nanoseconds.
	WallNs int64 `json:"wallNs"`
	// SimNs marks the simulated instant the span covers, when the work is
	// driven by the simulation clock (end events; 0 = not sim-timed).
	SimStartNs int64 `json:"simStartNs,omitempty"`
	SimEndNs   int64 `json:"simEndNs,omitempty"`
	// Attrs carries small key/value annotations (end events only).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans as begin/end events in memory, bounded by a cap so
// a runaway instrumented loop degrades into dropped events rather than
// unbounded growth. The zero value is not usable; create with NewTracer.
// A nil *Tracer is the no-op: Begin returns a nil *Span and every span
// method on nil does nothing.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	nextID  atomic.Int64
	dropped atomic.Int64
	cap     int
	clock   func() time.Time
}

// DefaultMaxEvents bounds a tracer's in-memory event buffer.
const DefaultMaxEvents = 1 << 20

// NewTracer returns a tracer holding at most maxEvents events
// (non-positive means DefaultMaxEvents).
func NewTracer(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{cap: maxEvents, clock: time.Now}
}

// record appends one event, counting instead of storing beyond the cap.
func (t *Tracer) record(e Event) {
	t.mu.Lock()
	if len(t.events) < t.cap {
		t.events = append(t.events, e)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// Dropped returns how many events the cap discarded (0 on nil).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Begin starts a root span. Use (*Span).Child for nested work, or the
// context helpers (StartSpan) which link parents automatically.
func (t *Tracer) Begin(name string) *Span {
	return t.begin(name, 0)
}

func (t *Tracer) begin(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: t.clock()}
	t.record(Event{Ev: "b", ID: s.id, Parent: parent, Name: name, WallNs: s.start.UnixNano()})
	return s
}

// Span is one traced operation. All methods are nil-safe no-ops, so
// instrumented code can unconditionally defer End().
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu       sync.Mutex
	simStart time.Time
	simEnd   time.Time
	attrs    map[string]string
	ended    bool
}

// Child starts a span parented to s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.begin(name, s.id)
}

// Sim stamps the span with the simulated interval its work covers. Per
// the stamping rule, wall time is always recorded; sim time rides along
// when the operation advances the simulation clock (propagation, contact
// search, downlink allocation), letting trace readers line spans up
// against the mission timeline.
func (s *Span) Sim(start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.simStart, s.simEnd = start, end
	s.mu.Unlock()
}

// Set attaches a key/value annotation, recorded on the end event.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End records the span's end event. Extra End calls are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := Event{Ev: "e", ID: s.id, Parent: s.parent, WallNs: s.t.clock().UnixNano(), Attrs: s.attrs}
	if !s.simStart.IsZero() {
		e.SimStartNs = s.simStart.UnixNano()
		e.SimEndNs = s.simEnd.UnixNano()
	}
	s.mu.Unlock()
	s.t.record(e)
}

// Events returns a copy of the recorded events in record order (nil on a
// nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSONL writes every recorded event as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil { // Encode appends the newline
			return err
		}
	}
	return bw.Flush()
}
