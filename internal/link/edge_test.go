package link

import (
	"testing"
	"time"

	"kodan/internal/station"
)

func TestZeroCapacityRadio(t *testing.T) {
	// A dead radio transfers nothing regardless of contact time, and any
	// radio transfers nothing in zero time — the degenerate ends of the
	// downlink budget.
	dead := Radio{RateBps: 0}
	if got := dead.Bits(10 * time.Minute); got != 0 {
		t.Fatalf("zero-rate radio transferred %v bits", got)
	}
	if got := Landsat8Radio().Bits(0); got != 0 {
		t.Fatalf("zero-duration contact transferred %v bits", got)
	}
}

func TestAllocateZeroSpan(t *testing.T) {
	// A zero-length scheduling horizon grants nothing even under full
	// visibility.
	p := Problem{
		Start:   t0,
		Span:    0,
		Windows: [][][]station.Window{{{w(0, 3600)}}},
	}
	if grants := Allocate(p); grants != nil {
		t.Fatalf("zero span produced grants: %v", grants)
	}
}

func TestAllocateZeroDurationWindow(t *testing.T) {
	// A degenerate window (Start == End) contains no instant, so it can
	// never be served.
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{{w(100, 100)}}},
	}
	if grants := Allocate(p); grants != nil {
		t.Fatalf("zero-duration window produced grants: %v", grants)
	}
}

func TestAllocateWindowEndExclusive(t *testing.T) {
	// Window ends are exclusive: a one-quantum window [0, 10s) yields
	// exactly one quantum, and a window starting at 10s is first served at
	// 10s, not before.
	p := Problem{
		Start:   t0,
		Span:    time.Hour,
		Windows: [][][]station.Window{{{w(0, 10)}}},
	}
	grants := Allocate(p)
	if len(grants) != 1 || grants[0].Dur != 10*time.Second || !grants[0].Start.Equal(t0) {
		t.Fatalf("one-quantum window grants = %+v", grants)
	}

	p.Windows = [][][]station.Window{{{w(10, 30)}}}
	grants = Allocate(p)
	if len(grants) != 1 || !grants[0].Start.Equal(t0.Add(10*time.Second)) || grants[0].Dur != 20*time.Second {
		t.Fatalf("offset window grants = %+v", grants)
	}

	// Visibility is sampled at quantum starts: a window that holds no
	// quantum start is never served.
	p.Windows = [][][]station.Window{{{w(1, 9)}}}
	if grants = Allocate(p); grants != nil {
		t.Fatalf("sub-quantum window grants = %+v", grants)
	}
}

func TestAllocateLeastServedCatchUp(t *testing.T) {
	// Satellite 0 is alone for its first window; when satellite 1 becomes
	// visible alongside it, the least-served-first rule gives satellite 1
	// the whole contested window until the two are even.
	p := Problem{
		Start: t0,
		Span:  time.Hour,
		Windows: [][][]station.Window{{
			{w(0, 100), w(100, 200)},
			{w(100, 200)},
		}},
	}
	served := PerSatServed(Allocate(p), 2)
	if served[0] != 100*time.Second || served[1] != 100*time.Second {
		t.Fatalf("served %v, want catch-up to [100s 100s]", served)
	}
}
