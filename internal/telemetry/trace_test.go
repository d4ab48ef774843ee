package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock returns a deterministic monotonic clock for trace tests.
func fixedClock() func() time.Time {
	t0 := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestTracerBeginEnd(t *testing.T) {
	tr := NewTracer(0)
	tr.clock = fixedClock()

	root := tr.Begin("run")
	root.Sim(time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC), time.Date(2023, 3, 26, 0, 0, 0, 0, time.UTC))
	child := root.Child("captures")
	child.Set("sat", "3")
	child.End()
	root.End()

	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if events[0].Ev != "b" || events[0].Name != "run" || events[0].Parent != 0 {
		t.Fatalf("bad root begin: %+v", events[0])
	}
	if events[1].Ev != "b" || events[1].Parent != events[0].ID {
		t.Fatalf("child begin not parent-linked: %+v", events[1])
	}
	if events[2].Ev != "e" || events[2].ID != events[1].ID || events[2].Attrs["sat"] != "3" {
		t.Fatalf("bad child end: %+v", events[2])
	}
	if events[3].SimStartNs == 0 || events[3].SimEndNs <= events[3].SimStartNs {
		t.Fatalf("root end must carry sim stamps: %+v", events[3])
	}

	if events[2].WallNs <= events[1].WallNs || events[3].WallNs <= events[0].WallNs {
		t.Fatalf("ends must be stamped after their begins: %+v", events)
	}
}

func TestTracerDoubleEndIgnored(t *testing.T) {
	tr := NewTracer(0)
	sp := tr.Begin("once")
	sp.End()
	sp.End()
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("events = %d, want 2 (double End ignored)", got)
	}
}

// TestJSONLWellFormedAndBalanced is the trace-format contract the make
// trace target relies on: every line parses as one Event, and begin/end
// events balance even when spans are created concurrently.
func TestJSONLWellFormedAndBalanced(t *testing.T) {
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := tr.Begin(fmt.Sprintf("worker-%d", w))
			for i := 0; i < 50; i++ {
				sp := root.Child("item")
				sp.Set("i", fmt.Sprint(i))
				sp.End()
			}
			root.End()
		}(w)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantEvents := 8 * (50 + 1) * 2
	if len(lines) != wantEvents {
		t.Fatalf("lines = %d, want %d", len(lines), wantEvents)
	}
	begins := map[int64]Event{}
	ends := 0
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", line, err)
		}
		switch e.Ev {
		case "b":
			if _, dup := begins[e.ID]; dup {
				t.Fatalf("duplicate begin for span %d", e.ID)
			}
			begins[e.ID] = e
		case "e":
			b, ok := begins[e.ID]
			if !ok {
				t.Fatalf("end without begin for span %d", e.ID)
			}
			if e.WallNs < b.WallNs {
				t.Fatalf("span %d ends before it begins", e.ID)
			}
			ends++
		default:
			t.Fatalf("unknown event kind %q", e.Ev)
		}
	}
	if ends != len(begins) {
		t.Fatalf("begin/end unbalanced: %d begins, %d ends", len(begins), ends)
	}
	// Every non-root parent must reference a recorded span.
	for id, e := range begins {
		if e.Parent != 0 {
			if _, ok := begins[e.Parent]; !ok {
				t.Fatalf("span %d has unknown parent %d", id, e.Parent)
			}
		}
	}
}

func TestTracerCapDrops(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Begin("s").End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Fatalf("events = %d, want cap 4", got)
	}
	if tr.Dropped() != 16 {
		t.Fatalf("dropped = %d, want 16", tr.Dropped())
	}
}

// TestWriteJSONLWithUnfinishedSpans: spans still open at export time
// appear as begin events without a matching end — the analyzer reports
// them as unfinished.
func TestWriteJSONLWithUnfinishedSpans(t *testing.T) {
	tr := NewTracer(0)
	tr.clock = fixedClock()
	open := tr.Begin("still-open")
	done := open.Child("closed")
	done.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	begins, ends := map[int64]bool{}, map[int64]bool{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		switch e.Ev {
		case "b":
			begins[e.ID] = true
		case "e":
			ends[e.ID] = true
		}
	}
	if len(begins) != 2 || len(ends) != 1 {
		t.Fatalf("begins=%d ends=%d, want 2/1", len(begins), len(ends))
	}
	if ends[open.id] {
		t.Error("unfinished span has an end event")
	}
	if !ends[done.id] {
		t.Error("finished child has no end event")
	}
}

// TestOutOfOrderEnd: ending a parent before its child is legal (workers
// may outlive the spawning span); both spans still record a parent-linked
// begin/end pair, the child's end after the parent's.
func TestOutOfOrderEnd(t *testing.T) {
	tr := NewTracer(0)
	tr.clock = fixedClock()
	parent := tr.Begin("parent")
	child := parent.Child("child")
	parent.End() // out of order: parent first
	child.End()

	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	pb, cb, pe, ce := events[0], events[1], events[2], events[3]
	if cb.Parent != pb.ID {
		t.Error("out-of-order end broke parent linkage")
	}
	if pe.Ev != "e" || pe.ID != pb.ID || ce.Ev != "e" || ce.ID != cb.ID {
		t.Fatalf("end events = %+v, %+v; want parent's end then child's", pe, ce)
	}
	if ce.WallNs-cb.WallNs < pe.WallNs-pb.WallNs {
		t.Errorf("child (%dns) should outlive parent (%dns) here", ce.WallNs-cb.WallNs, pe.WallNs-pb.WallNs)
	}
}
