package link

import (
	"testing"
	"time"

	"kodan/internal/station"
)

var t0 = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

func w(startSec, endSec int) station.Window {
	return station.Window{
		Start: t0.Add(time.Duration(startSec) * time.Second),
		End:   t0.Add(time.Duration(endSec) * time.Second),
	}
}

func TestRadioBits(t *testing.T) {
	r := Landsat8Radio()
	if got := r.Bits(time.Second); got != 384e6 {
		t.Fatalf("bits/s = %v", got)
	}
	if got := r.Bits(10 * time.Minute); got != 384e6*600 {
		t.Fatalf("bits/10min = %v", got)
	}
}

func TestAllocateSingleSatGetsAllTime(t *testing.T) {
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{{w(100, 400)}}},
	}
	grants := Allocate(p)
	if got := TotalServed(grants); got != 300*time.Second {
		t.Fatalf("served %v, want 5m0s", got)
	}
	if len(grants) != 1 {
		t.Fatalf("grants not merged: %d", len(grants))
	}
}

func TestAllocateContentionSplitsFairly(t *testing.T) {
	// Two satellites visible at the same station over the same window must
	// share it approximately evenly.
	shared := []station.Window{w(0, 600)}
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{shared, shared}},
	}
	served := PerSatServed(Allocate(p), 2)
	if served[0]+served[1] != 600*time.Second {
		t.Fatalf("total %v, want 10m", served[0]+served[1])
	}
	diff := served[0] - served[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*time.Second {
		t.Fatalf("unfair split: %v vs %v", served[0], served[1])
	}
}

func TestAllocateClaimsIdleTime(t *testing.T) {
	// Two satellites with disjoint windows both get their full window —
	// the Figure 2 "claiming previously idle ground station time" effect.
	p := Problem{
		Start: t0,
		Span:  time.Hour,
		Windows: [][][]station.Window{{
			{w(0, 300)},
			{w(1000, 1300)},
		}},
	}
	served := PerSatServed(Allocate(p), 2)
	if served[0] != 300*time.Second || served[1] != 300*time.Second {
		t.Fatalf("served %v", served)
	}
}

func TestAllocateOneRadioPerSatellite(t *testing.T) {
	// A satellite visible at two stations simultaneously can only use one.
	win := []station.Window{w(0, 100)}
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{win}, {win}},
	}
	served := PerSatServed(Allocate(p), 1)
	if served[0] != 100*time.Second {
		t.Fatalf("served %v, want 1m40s (not double-counted)", served[0])
	}
}

func TestAllocateTwoStationsTwoSats(t *testing.T) {
	// Two stations, two satellites, all mutually visible: both stations
	// should be busy every quantum, serving different satellites.
	win := []station.Window{w(0, 200)}
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{win, win}, {win, win}},
	}
	served := PerSatServed(Allocate(p), 2)
	if served[0] != 200*time.Second || served[1] != 200*time.Second {
		t.Fatalf("served %v, want both fully served", served)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	win := []station.Window{w(0, 600), w(1200, 1500)}
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{win, win, win}},
	}
	a := Allocate(p)
	b := Allocate(p)
	if len(a) != len(b) {
		t.Fatalf("grant counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d differs", i)
		}
	}
}

func TestAllocateGrantsWithinWindows(t *testing.T) {
	win := []station.Window{w(50, 250), w(400, 500)}
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{win}},
	}
	for _, g := range Allocate(p) {
		inside := false
		for _, ww := range win {
			if !g.Start.Before(ww.Start) && !g.End().After(ww.End) {
				inside = true
			}
		}
		if !inside {
			t.Fatalf("grant %+v outside windows", g)
		}
	}
}

func TestAllocateEmptyProblem(t *testing.T) {
	if got := Allocate(Problem{Start: t0, Span: time.Hour}); got != nil {
		t.Fatalf("expected nil grants, got %v", got)
	}
}

func TestAllocateSaturation(t *testing.T) {
	// With one always-on station, total served time saturates at the span
	// while per-satellite time shrinks with population — the Figure 2
	// saturation regime.
	full := []station.Window{w(0, 3600)}
	prevPer := time.Duration(1 << 62)
	for _, n := range []int{1, 2, 4, 8} {
		satsRow := make([][]station.Window, n)
		for i := range satsRow {
			satsRow[i] = full
		}
		p := Problem{Start: t0, Span: time.Hour, Windows: [][][]station.Window{satsRow}}
		grants := Allocate(p)
		if total := TotalServed(grants); total != time.Hour {
			t.Fatalf("n=%d: station idle, served %v of 1h", n, total)
		}
		served := PerSatServed(grants, n)
		if served[0] >= prevPer {
			t.Fatalf("n=%d: per-sat time %v did not shrink from %v", n, served[0], prevPer)
		}
		prevPer = served[0]
	}
}
