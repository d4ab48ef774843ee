// Package link models the space-to-ground communication segment: radio
// data rates and the allocation of shared ground-station time among the
// satellites of a constellation. It reproduces the contention behavior at
// the heart of the paper's downlink-bottleneck analysis (Figure 2): a lone
// satellite leaves stations idle most of the time; additional satellites
// first claim idle time and then saturate the segment, after which adding
// satellites adds observations but no downlink.
package link

import (
	"sort"
	"time"

	"kodan/internal/station"
)

// Radio is a satellite downlink radio characterized by its data rate.
type Radio struct {
	// RateBps is the downlink data rate in bits per second.
	RateBps float64
}

// Landsat8Radio returns the Landsat 8 X-band downlink (384 Mbit/s).
func Landsat8Radio() Radio { return Radio{RateBps: 384e6} }

// Bits returns the number of bits transferable in d at the radio's rate.
func (r Radio) Bits(d time.Duration) float64 {
	return r.RateBps * d.Seconds()
}

// Grant is an interval of station time awarded to one satellite.
type Grant struct {
	Station int
	Sat     int
	Start   time.Time
	Dur     time.Duration
}

// End returns the grant's end time.
func (g Grant) End() time.Time { return g.Start.Add(g.Dur) }

// GrantQuantum is the station-time allocation granularity every simulation
// schedules at.
const GrantQuantum = 10 * time.Second

// Problem describes an allocation run. Windows[i][j] lists the visibility
// windows of satellite j at station i over [Start, Start+Span).
type Problem struct {
	Start   time.Time
	Span    time.Duration
	Windows [][][]station.Window
}

// sats returns the satellite count implied by the window matrix.
func (p Problem) sats() int {
	n := 0
	for _, row := range p.Windows {
		if len(row) > n {
			n = len(row)
		}
	}
	return n
}

// Allocate assigns station time to satellites in GrantQuantum steps. Each
// station serves at most one satellite per quantum, and each satellite talks to at most one
// station per quantum (it has one radio). Among visible candidates a
// station picks the satellite that has been served least so far (ties to
// the lowest index), which converges to a fair division under saturation
// while leaving no claimable time idle. The result is deterministic.
//
// Adjacent per-quantum grants to the same (station, satellite) pair are
// merged, so the returned grants are maximal contiguous serve intervals in
// time order.
func Allocate(p Problem) []Grant {
	nSats := p.sats()
	if nSats == 0 || len(p.Windows) == 0 {
		return nil
	}
	served := make([]time.Duration, nSats)
	// Per-station cursor into its (sorted) window lists flattened per sat.
	type cursor struct{ winIdx []int }
	cursors := make([]cursor, len(p.Windows))
	for i := range cursors {
		cursors[i].winIdx = make([]int, nSats)
		for j := range p.Windows[i] {
			sort.Slice(p.Windows[i][j], func(a, b int) bool {
				return p.Windows[i][j][a].Start.Before(p.Windows[i][j][b].Start)
			})
		}
	}

	var grants []Grant
	end := p.Start.Add(p.Span)
	busy := make([]bool, nSats) // satellite already granted this quantum
	for t := p.Start; t.Before(end); t = t.Add(GrantQuantum) {
		for i := range busy {
			busy[i] = false
		}
		for st := range p.Windows {
			best := -1
			for sat := 0; sat < nSats; sat++ {
				if busy[sat] || sat >= len(p.Windows[st]) {
					continue
				}
				if !visibleAt(p.Windows[st][sat], &cursors[st].winIdx[sat], t) {
					continue
				}
				if best == -1 || served[sat] < served[best] {
					best = sat
				}
			}
			if best == -1 {
				continue
			}
			busy[best] = true
			served[best] += GrantQuantum
			// Merge with the previous grant when contiguous.
			if n := len(grants); n > 0 {
				last := &grants[n-1]
				if last.Station == st && last.Sat == best && last.End().Equal(t) {
					last.Dur += GrantQuantum
					continue
				}
			}
			grants = append(grants, Grant{Station: st, Sat: best, Start: t, Dur: GrantQuantum})
		}
	}
	return grants
}

// visibleAt reports whether t falls inside one of the sorted windows,
// advancing *idx monotonically so repeated queries with increasing t are
// amortized O(1).
func visibleAt(ws []station.Window, idx *int, t time.Time) bool {
	for *idx < len(ws) && !t.Before(ws[*idx].End) {
		*idx++
	}
	return *idx < len(ws) && ws[*idx].Contains(t)
}

// DeratedBits integrates per-satellite downlink capacity over the grants
// under a time-varying capacity multiplier (1.0 = nominal rate), sampled
// once per GrantQuantum at the quantum's start — the granularity the
// allocator grants at. Fault injection uses it to model link fades; with a
// constant 1.0 multiplier it reproduces Radio.Bits over PerSatServed
// exactly.
func DeratedBits(r Radio, grants []Grant, nSats int, derate func(station int, t time.Time) float64) []float64 {
	out := make([]float64, nSats)
	for _, g := range grants {
		for t := g.Start; t.Before(g.End()); t = t.Add(GrantQuantum) {
			step := GrantQuantum
			if rem := g.End().Sub(t); rem < step {
				step = rem
			}
			out[g.Sat] += r.Bits(step) * derate(g.Station, t)
		}
	}
	return out
}

// PerSatServed sums granted time per satellite.
func PerSatServed(grants []Grant, nSats int) []time.Duration {
	out := make([]time.Duration, nSats)
	for _, g := range grants {
		out[g.Sat] += g.Dur
	}
	return out
}

// TotalServed sums all granted time.
func TotalServed(grants []Grant) time.Duration {
	var total time.Duration
	for _, g := range grants {
		total += g.Dur
	}
	return total
}
