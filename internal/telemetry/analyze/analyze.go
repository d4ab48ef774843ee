// Package analyze turns an exported trace (the JSONL event stream written
// by telemetry.Tracer.WriteJSONL) back into span trees and answers the
// questions an operator asks of a trace: where did wall time go per phase
// (total vs self), what was the critical path, what does the flamegraph
// look like, and — given two traces — which phase is responsible for the
// difference.
//
// The parser is the exact inverse of WriteJSONL: one Event per line,
// strict JSON, rejected with line numbers on anything malformed. Dropped
// events are a fact of life (the tracer's buffer is capped), so an end
// event whose begin was dropped is counted, not fatal; a begin whose end
// was dropped shows up as an unfinished span.
//
// Every function in this package is deterministic: the same input bytes
// produce the same output bytes, regardless of map iteration order or the
// worker count that produced the trace. All ties break on span ID or name.
package analyze

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"kodan/internal/telemetry"
)

// ReadEvents parses a JSONL event stream, one telemetry.Event per line.
// Any malformed, truncated, or semantically impossible line (unknown
// event kind, non-positive ID, begin without a name) fails with a
// *telemetry.ParseError carrying its line number.
func ReadEvents(r io.Reader) ([]telemetry.Event, error) {
	return telemetry.ReadJSONL(r, validateEvent)
}

// validateEvent checks the span contract of one trace event.
func validateEvent(e telemetry.Event) error {
	switch e.Ev {
	case "b":
		if e.Name == "" {
			return fmt.Errorf("begin event without a name")
		}
	case "e":
		// End events carry no name; nothing further to require.
	default:
		return fmt.Errorf("unknown event kind %q", e.Ev)
	}
	if e.ID <= 0 {
		return fmt.Errorf("non-positive span id %d", e.ID)
	}
	return nil
}

// Span is one reassembled span. EndNs is -1 while unfinished; only
// finished spans appear in Trace.Spans.
type Span struct {
	ID     int64
	Parent int64
	Name   string

	StartNs    int64
	EndNs      int64
	SimStartNs int64
	SimEndNs   int64
	Attrs      map[string]string

	// Children are the finished child spans, ordered by start time
	// (ID breaks ties).
	Children []*Span

	selfNs int64
}

// Dur is the span's wall-clock duration.
func (s *Span) Dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// Self is the span's wall time not covered by any finished child: the
// duration minus the union of child intervals (clamped to the span).
func (s *Span) Self() time.Duration { return time.Duration(s.selfNs) }

// Trace is a reassembled span forest.
type Trace struct {
	// Events is how many events the input carried.
	Events int
	// Spans holds every finished span, in begin order.
	Spans []*Span
	// Roots holds the finished spans with no finished parent, ordered by
	// start time (ID breaks ties).
	Roots []*Span
	// Unfinished lists the names of spans whose end event never arrived
	// (still open at export time, or the end was dropped at the buffer
	// cap), sorted.
	Unfinished []string
	// OrphanEnds counts end events whose begin event is missing — the
	// begin fell to the tracer's buffer cap.
	OrphanEnds int
}

// Build reassembles events (in record order, as ReadEvents returns them)
// into a span forest. Structural contradictions — duplicate begin or end
// for one span ID, a span ending before it begins — are errors carrying
// the offending event's 1-based position, which equals its line number
// when the events came from ReadEvents.
func Build(events []telemetry.Event) (*Trace, error) {
	t := &Trace{Events: len(events)}
	byID := make(map[int64]*Span, len(events)/2)
	order := make([]*Span, 0, len(events)/2)
	for i, e := range events {
		switch e.Ev {
		case "b":
			if _, dup := byID[e.ID]; dup {
				return nil, &telemetry.ParseError{Line: i + 1, Err: fmt.Errorf("duplicate begin for span %d", e.ID)}
			}
			sp := &Span{ID: e.ID, Parent: e.Parent, Name: e.Name, StartNs: e.WallNs, EndNs: -1}
			byID[e.ID] = sp
			order = append(order, sp)
		case "e":
			sp, ok := byID[e.ID]
			if !ok {
				t.OrphanEnds++
				continue
			}
			if sp.EndNs >= 0 {
				return nil, &telemetry.ParseError{Line: i + 1, Err: fmt.Errorf("duplicate end for span %d", e.ID)}
			}
			if e.WallNs < sp.StartNs {
				return nil, &telemetry.ParseError{Line: i + 1, Err: fmt.Errorf("span %d ends before it begins", e.ID)}
			}
			sp.EndNs = e.WallNs
			sp.SimStartNs, sp.SimEndNs = e.SimStartNs, e.SimEndNs
			sp.Attrs = e.Attrs
		}
	}

	for _, sp := range order {
		if sp.EndNs < 0 {
			t.Unfinished = append(t.Unfinished, sp.Name)
			continue
		}
		t.Spans = append(t.Spans, sp)
	}
	sort.Strings(t.Unfinished)

	// Link finished children to finished parents; everything else roots.
	for _, sp := range t.Spans {
		parent, ok := byID[sp.Parent]
		if sp.Parent != 0 && ok && parent.EndNs >= 0 {
			parent.Children = append(parent.Children, sp)
		} else {
			t.Roots = append(t.Roots, sp)
		}
	}
	byStart := func(a, b *Span) bool {
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		return a.ID < b.ID
	}
	sort.Slice(t.Roots, func(i, j int) bool { return byStart(t.Roots[i], t.Roots[j]) })
	for _, sp := range t.Spans {
		kids := sp.Children
		sort.Slice(kids, func(i, j int) bool { return byStart(kids[i], kids[j]) })
	}
	for _, sp := range t.Spans {
		sp.selfNs = computeSelf(sp)
	}
	return t, nil
}

// Parse reads and reassembles a trace in one step. Errors carry line
// numbers from either stage.
func Parse(r io.Reader) (*Trace, error) {
	events, err := ReadEvents(r)
	if err != nil {
		return nil, err
	}
	return Build(events)
}

// ParseFile parses the trace at path.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// computeSelf subtracts the union of sp's child intervals (clamped to sp)
// from its duration. Children may overlap (concurrent workers under one
// parent), so intervals are merged, not summed.
func computeSelf(sp *Span) int64 {
	if len(sp.Children) == 0 {
		return sp.EndNs - sp.StartNs
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(sp.Children))
	for _, c := range sp.Children {
		lo, hi := c.StartNs, c.EndNs
		if lo < sp.StartNs {
			lo = sp.StartNs
		}
		if hi > sp.EndNs {
			hi = sp.EndNs
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = -1 << 62
	var start int64
	open := false
	for _, v := range ivs {
		if !open || v.lo > end {
			if open {
				covered += end - start
			}
			start, end, open = v.lo, v.hi, true
		} else if v.hi > end {
			end = v.hi
		}
	}
	if open {
		covered += end - start
	}
	return (sp.EndNs - sp.StartNs) - covered
}

// PhaseStat aggregates every finished span sharing one name.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	Max   time.Duration
}

// Phases aggregates the trace by span name: total wall time, self time,
// span count, and max single-span duration per phase. Sorted by self time
// descending (self, not total, is the honest answer to "where did the
// time actually go" — total double-counts parents); name breaks ties.
func (t *Trace) Phases() []PhaseStat {
	byName := make(map[string]*PhaseStat)
	for _, sp := range t.Spans {
		ps, ok := byName[sp.Name]
		if !ok {
			ps = &PhaseStat{Name: sp.Name}
			byName[sp.Name] = ps
		}
		ps.Count++
		ps.Total += sp.Dur()
		ps.Self += sp.Self()
		if d := sp.Dur(); d > ps.Max {
			ps.Max = d
		}
	}
	out := make([]PhaseStat, 0, len(byName))
	for _, ps := range byName {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}
