// Package events is the mission event journal: a deterministic,
// sim-time-stamped record of what the simulated mission *did* — which
// frames were captured, which contacts opened and closed, which downlink
// grants were won, when fault windows bit, where the planner placed work,
// and how the deferred backlog drained. The wall-time span tracer
// (internal/telemetry) answers "where did the host CPU go"; this package
// answers "what happened in mission time", which is the axis the paper's
// claims live on.
//
// The journal follows the repository's two observability rules:
//
//   - Nil is the no-op. Every method on a nil *Journal is safe and does
//     nothing, mirroring telemetry.Probe and fault.Injector, so
//     instrumented layers emit unconditionally and runs without a journal
//     attached stay byte-identical to uninstrumented ones.
//
//   - Journaling never feeds back into results. Emitters record what the
//     simulation produced; the export is canonically ordered (sim time
//     first), so the JSONL bytes are identical at every worker count.
//
// The package uses only the standard library and internal/telemetry.
package events

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"kodan/internal/telemetry"
)

// Type is a mission event category.
type Type string

// Mission event types, in the fixed order Types lists them.
const (
	// Capture is one frame captured by a satellite's imager. Detail is
	// the WRS scene, Value is unused.
	Capture Type = "capture"
	// SceneBoundary marks a satellite's ground track crossing into a new
	// WRS path (a fresh orbit pass over the grid). Detail is the first
	// scene of the new path, Value its path index.
	SceneBoundary Type = "scene_boundary"
	// ContactStart and ContactEnd bracket one (station, satellite)
	// visibility window. ContactEnd's Value is the window seconds.
	ContactStart Type = "contact_start"
	ContactEnd   Type = "contact_end"
	// DownlinkGrant is one contention-resolved station-time grant. Value
	// is the granted seconds.
	DownlinkGrant Type = "downlink_grant"
	// FaultEnter and FaultExit bracket one injected fault window. Detail
	// is the fault kind, Value its severity; station-scoped faults carry
	// Sat -1, satellite-scoped faults carry an empty Station.
	FaultEnter Type = "fault_enter"
	FaultExit  Type = "fault_exit"
	// PlannerDisposition is one context's placement in a hybrid execution
	// plan. Planning happens before mission time, so SimNs is 0 and Sat
	// is -1; Detail is "C<i>-><disposition>", Value the context's tile
	// fraction.
	PlannerDisposition Type = "planner_disposition"
	// DeferEnqueue, DeferDrain, and DeferOverflow journal the
	// store-and-forward replay of deferred traffic: a frame's bits
	// admitted to the on-board buffer (Value = bits), a buffered chunk
	// fully delivered (Value = capture-to-delivery latency seconds), and
	// bits tail-dropped at the buffer cap (Value = bits lost).
	DeferEnqueue  Type = "defer_enqueue"
	DeferDrain    Type = "defer_drain"
	DeferOverflow Type = "defer_overflow"
	// BufferHighWater is one satellite's peak deferral-buffer occupancy
	// over the replay, stamped at the instant the peak was set (Value =
	// bits).
	BufferHighWater Type = "buffer_highwater"
)

// Types lists every event type in fixed order, for deterministic
// iteration and rendering.
var Types = []Type{
	Capture, SceneBoundary, ContactStart, ContactEnd, DownlinkGrant,
	FaultEnter, FaultExit, PlannerDisposition,
	DeferEnqueue, DeferDrain, DeferOverflow, BufferHighWater,
}

// Valid reports whether t is a known type.
func (t Type) Valid() bool {
	for _, known := range Types {
		if t == known {
			return true
		}
	}
	return false
}

// Event is one journal record. Events are stamped in simulation time
// (Unix nanoseconds of the simulated instant), not wall time: the journal
// describes the mission, not the host.
type Event struct {
	// SimNs is the simulated instant in Unix nanoseconds. 0 means "before
	// mission time" (planning decisions).
	SimNs int64 `json:"simNs"`
	// Type is the event category.
	Type Type `json:"type"`
	// Sat is the satellite index the event concerns; -1 for events scoped
	// to a station or to the whole constellation.
	Sat int `json:"sat"`
	// Station names the ground station, when one is involved.
	Station string `json:"station,omitempty"`
	// Value carries the event's scalar (seconds, bits, dB, fraction —
	// per-type, see the Type docs).
	Value float64 `json:"value,omitempty"`
	// Detail carries the event's short string payload (scene, fault kind,
	// placement).
	Detail string `json:"detail,omitempty"`
}

// Sim returns the event's simulated instant.
func (e Event) Sim() time.Time { return time.Unix(0, e.SimNs) }

// validate rejects events the journal contract forbids.
func (e Event) validate() error {
	if !e.Type.Valid() {
		return fmt.Errorf("unknown event type %q", e.Type)
	}
	if e.SimNs < 0 {
		return fmt.Errorf("negative sim timestamp %d", e.SimNs)
	}
	if e.Sat < -1 {
		return fmt.Errorf("satellite index %d below -1", e.Sat)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Errorf("non-finite value %v", e.Value)
	}
	switch e.Type {
	case Capture, SceneBoundary, DeferEnqueue, DeferDrain, DeferOverflow, BufferHighWater:
		if e.Sat < 0 {
			return fmt.Errorf("%s event without a satellite", e.Type)
		}
	case ContactStart, ContactEnd, DownlinkGrant:
		if e.Sat < 0 || e.Station == "" {
			return fmt.Errorf("%s event needs a satellite and a station", e.Type)
		}
	case FaultEnter, FaultExit:
		if e.Detail == "" {
			return fmt.Errorf("%s event without a fault kind", e.Type)
		}
	case PlannerDisposition:
		if e.Detail == "" {
			return fmt.Errorf("%s event without a placement", e.Type)
		}
	}
	return nil
}

// less is the canonical journal order: sim time, then type, then scope,
// then payload. It is a total order up to full event equality, so a
// journal's exported bytes do not depend on emission order — which is
// what makes journals byte-identical at every worker count.
func less(a, b Event) bool {
	if a.SimNs != b.SimNs {
		return a.SimNs < b.SimNs
	}
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Sat != b.Sat {
		return a.Sat < b.Sat
	}
	if a.Station != b.Station {
		return a.Station < b.Station
	}
	if a.Detail != b.Detail {
		return a.Detail < b.Detail
	}
	return a.Value < b.Value
}

// Sort orders events canonically in place.
func Sort(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
}

// Journal accumulates mission events. The nil *Journal is the no-op:
// Emit does nothing and Active reports false, so instrumented layers call
// it unconditionally. Emission order does not matter — Events and
// WriteJSONL export in canonical order.
type Journal struct {
	mu     sync.Mutex
	events []Event
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Active reports whether a journal is attached (false on nil).
func (j *Journal) Active() bool { return j != nil }

// Emit records one event (no-op on nil).
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, e)
	j.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a canonically ordered copy of the journal (nil on nil).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	out := append([]Event(nil), j.events...)
	j.mu.Unlock()
	Sort(out)
	return out
}

// CountsByType tallies the journal per event type. Every known type is
// present in the result, absent ones with zero.
func (j *Journal) CountsByType() map[Type]int {
	out := make(map[Type]int, len(Types))
	for _, t := range Types {
		out[t] = 0
	}
	if j == nil {
		return out
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.events {
		out[e.Type]++
	}
	return out
}

// WriteJSONL writes the journal as strict JSONL, one canonical-order
// event per line. A nil journal writes nothing.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range j.Events() {
		if err := enc.Encode(e); err != nil { // Encode appends the newline
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the journal to path (creating or truncating it).
func WriteFile(j *Journal, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJournal parses a strict JSONL journal, one Event per line, with the
// same validation discipline as the trace analyzer: unknown fields,
// trailing data, unknown types, and contract-violating events are all
// rejected with a *telemetry.ParseError carrying the line number.
func ReadJournal(r io.Reader) ([]Event, error) {
	return telemetry.ReadJSONL(r, Event.validate)
}

// ReadFile parses the journal at path.
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := ReadJournal(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

type ctxKey int

const journalKey ctxKey = iota

// WithJournal attaches a journal to the context. The instrumented layers
// below — the simulator, the deferral drain, the execution planner — pick
// it up with JournalFrom.
func WithJournal(ctx context.Context, j *Journal) context.Context {
	if j == nil {
		return ctx
	}
	return context.WithValue(ctx, journalKey, j)
}

// JournalFrom returns the context's journal, or nil (the no-op).
func JournalFrom(ctx context.Context) *Journal {
	j, _ := ctx.Value(journalKey).(*Journal)
	return j
}
