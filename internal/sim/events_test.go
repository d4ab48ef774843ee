package sim

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kodan/internal/fault"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/events"
)

// journalBytes runs a 6-hour two-satellite mission with a journal
// attached and returns the exported JSONL plus the result ledger.
func journalBytes(t *testing.T, workers int, sched *fault.Schedule) (string, string) {
	t.Helper()
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	cfg.Workers = workers
	ctx := context.Background()
	if sched != nil {
		ctx = fault.WithInjector(ctx, fault.NewInjector(sched))
	}
	j := events.NewJournal()
	res, err := RunCtx(events.WithJournal(ctx, j), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.DrainDeferredCtx(events.WithJournal(context.Background(), j),
		cfg.Camera.FrameBits(), 64*cfg.Camera.FrameBits())
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), ledger(res)
}

// TestJournalByteIdenticalAcrossWorkers is the tentpole determinism
// property: the exported journal (including the drain replay) is
// byte-identical at every worker count, clean and faulted.
func TestJournalByteIdenticalAcrossWorkers(t *testing.T) {
	for name, sched := range map[string]*fault.Schedule{
		"clean":   nil,
		"faulted": testSchedule(),
	} {
		base, baseLedger := journalBytes(t, 1, sched)
		if base == "" {
			t.Fatalf("%s: empty journal", name)
		}
		for _, workers := range []int{4, 0} {
			got, gotLedger := journalBytes(t, workers, sched)
			if got != base {
				t.Errorf("%s: journal diverged between workers=1 and workers=%d", name, workers)
			}
			if gotLedger != baseLedger {
				t.Errorf("%s: ledger diverged between workers=1 and workers=%d", name, workers)
			}
		}
	}
}

// TestJournaledRunByteIdenticalToBaseline pins the observe-only rule:
// attaching a journal changes nothing about the result.
func TestJournaledRunByteIdenticalToBaseline(t *testing.T) {
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	base, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCtx(events.WithJournal(context.Background(), events.NewJournal()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledger(res), ledger(base); got != want {
		t.Errorf("journaled ledger diverged from baseline\n--- baseline:\n%s--- got:\n%s", want, got)
	}
	// Same for the drain stats.
	baseStats := base.DrainDeferredCtx(t.Context(), cfg.Camera.FrameBits(), 8*cfg.Camera.FrameBits())
	gotStats := res.DrainDeferredCtx(events.WithJournal(context.Background(), events.NewJournal()),
		cfg.Camera.FrameBits(), 8*cfg.Camera.FrameBits())
	if baseStats != gotStats {
		t.Errorf("journaled drain stats diverged: %+v vs %+v", baseStats, gotStats)
	}
}

// TestFaultFreeJournalHasNoFaultEvents pins the clean-run contract the
// anomaly CI gate depends on.
func TestFaultFreeJournalHasNoFaultEvents(t *testing.T) {
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	j := events.NewJournal()
	if _, err := RunCtx(events.WithJournal(context.Background(), j), cfg); err != nil {
		t.Fatal(err)
	}
	counts := j.CountsByType()
	if counts[events.FaultEnter] != 0 || counts[events.FaultExit] != 0 {
		t.Fatalf("fault-free run journaled %d enter / %d exit fault events",
			counts[events.FaultEnter], counts[events.FaultExit])
	}
	for _, typ := range []events.Type{events.Capture, events.ContactStart, events.ContactEnd, events.DownlinkGrant} {
		if counts[typ] == 0 {
			t.Errorf("journal has no %s events", typ)
		}
	}
}

// TestFaultedJournalPairsFaultWindows checks the faulted journal carries
// one enter and one exit per schedule window, inside the simulated span.
func TestFaultedJournalPairsFaultWindows(t *testing.T) {
	sched := testSchedule()
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	j := events.NewJournal()
	ctx := fault.WithInjector(context.Background(), fault.NewInjector(sched))
	if _, err := RunCtx(events.WithJournal(ctx, j), cfg); err != nil {
		t.Fatal(err)
	}
	counts := j.CountsByType()
	if got, want := counts[events.FaultEnter], len(sched.Windows); got != want {
		t.Fatalf("fault_enter count = %d, want %d", got, want)
	}
	if got, want := counts[events.FaultExit], len(sched.Windows); got != want {
		t.Fatalf("fault_exit count = %d, want %d", got, want)
	}
	end := epoch.Add(6 * time.Hour)
	for _, e := range j.Events() {
		if e.Type != events.FaultEnter && e.Type != events.FaultExit {
			continue
		}
		if e.Sim().Before(epoch) || e.Sim().After(end) {
			t.Errorf("fault event at %v outside simulated span", e.Sim())
		}
		if e.Detail == "" {
			t.Errorf("fault event without a kind: %+v", e)
		}
	}
}

// TestJournalCountersPublished checks the sim.events.* and sim.drain.*
// metrics reach a shared registry alongside the journal.
func TestJournalCountersPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithProbe(context.Background(), telemetry.Probe{Metrics: reg})
	j := events.NewJournal()
	ctx = events.WithJournal(ctx, j)
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	res, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.DrainDeferredCtx(ctx, cfg.Camera.FrameBits(), 64*cfg.Camera.FrameBits())

	counts := j.CountsByType()
	for _, typ := range []events.Type{events.Capture, events.ContactStart, events.DownlinkGrant} {
		got := reg.Counter("sim.events." + string(typ)).Load()
		if got != int64(counts[typ]) {
			t.Errorf("sim.events.%s = %d, want %d", typ, got, counts[typ])
		}
	}
	if reg.Counter("sim.drain.delivered_bits").Load() <= 0 {
		t.Error("sim.drain.delivered_bits not published")
	}
	if reg.Histogram("sim.drain.delivery_latency_seconds").Count() == 0 {
		t.Error("sim.drain.delivery_latency_seconds histogram empty")
	}
	if reg.Gauge("sim.drain.peak_buffer_bits").Load() <= 0 {
		t.Error("sim.drain.peak_buffer_bits gauge not set")
	}
	// Without a journal, no sim.events.* counters appear (the journal is
	// the emission trigger), but drain metrics still publish.
	reg2 := telemetry.NewRegistry()
	ctx2 := telemetry.WithProbe(context.Background(), telemetry.Probe{Metrics: reg2})
	res2, err := RunCtx(ctx2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2.DrainDeferredCtx(ctx2, cfg.Camera.FrameBits(), 64*cfg.Camera.FrameBits())
	if got := reg2.Counter("sim.events.capture").Load(); got != 0 {
		t.Errorf("journal-less run published sim.events.capture = %d", got)
	}
	if reg2.Counter("sim.drain.delivered_bits").Load() <= 0 {
		t.Error("journal-less run did not publish drain metrics")
	}
}

// TestDrainJournalAccounting cross-checks the drain's journal against its
// returned stats: enqueued bits equal delivered + dropped + residual, and
// the per-satellite high-water marks bound the global peak.
func TestDrainJournalAccounting(t *testing.T) {
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	res, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := events.NewJournal()
	stats := res.DrainDeferredCtx(events.WithJournal(context.Background(), j),
		cfg.Camera.FrameBits(), 8*cfg.Camera.FrameBits())

	var enq, drop, peak float64
	drains := 0
	for _, e := range j.Events() {
		switch e.Type {
		case events.DeferEnqueue:
			enq += e.Value
		case events.DeferOverflow:
			drop += e.Value
		case events.DeferDrain:
			drains++
		case events.BufferHighWater:
			if e.Value > peak {
				peak = e.Value
			}
		}
	}
	// Relative tolerance: the totals are O(1e12) bits accumulated in a
	// different order than the stats, so only ~12 digits agree exactly.
	close := func(a, b float64) bool {
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		scale := a
		if b > scale {
			scale = b
		}
		return diff <= 1e-9*scale
	}
	if !close(enq, stats.DeliveredBits+stats.ResidualBits) {
		t.Errorf("enqueued %.0f != delivered %.0f + residual %.0f", enq, stats.DeliveredBits, stats.ResidualBits)
	}
	if !close(drop, stats.DroppedBits) {
		t.Errorf("journaled drops %.0f != stats %.0f", drop, stats.DroppedBits)
	}
	if peak != stats.PeakBufferBits {
		t.Errorf("max high-water %.0f != peak %.0f", peak, stats.PeakBufferBits)
	}
	if stats.DeliveredBits > 0 && drains == 0 {
		t.Error("bits delivered but no defer_drain events journaled")
	}
}
