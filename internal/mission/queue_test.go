package mission

import (
	"math"
	"testing"

	"kodan/internal/value"
	"kodan/internal/xrand"
)

// refQueue is the slice-shifting queue the head-indexed, tombstoning queue
// replaced, kept verbatim as the oracle: drains reslice the head away and
// evictions shift the tail down.
type refQueue struct {
	limit float64
	items []refItem
	bits  float64
}

type refItem struct {
	chunk    value.Chunk
	assessed bool
}

func (q *refQueue) push(c value.Chunk, assessed bool) {
	if c.Bits <= 0 {
		return
	}
	q.items = append(q.items, refItem{chunk: c, assessed: assessed})
	q.bits += c.Bits
}

func (q *refQueue) enforce() float64 {
	if q.limit <= 0 || q.bits <= q.limit {
		return 0
	}
	var dropped float64
	for q.bits > q.limit && len(q.items) > 0 {
		victimIdx := q.pickVictim()
		victim := q.items[victimIdx]
		over := q.bits - q.limit
		if victim.chunk.Bits <= over {
			q.items = append(q.items[:victimIdx], q.items[victimIdx+1:]...)
			q.bits -= victim.chunk.Bits
			dropped += victim.chunk.Bits
			continue
		}
		frac := over / victim.chunk.Bits
		q.items[victimIdx].chunk = value.Chunk{
			Bits:      victim.chunk.Bits - over,
			ValueBits: victim.chunk.ValueBits * (1 - frac),
		}
		q.bits -= over
		dropped += over
	}
	return dropped
}

func (q *refQueue) pickVictim() int {
	for i, it := range q.items {
		if !it.assessed {
			return i
		}
	}
	worst := 0
	for i := 1; i < len(q.items); i++ {
		if q.items[i].chunk.Density() < q.items[worst].chunk.Density() {
			worst = i
		}
	}
	return worst
}

func (q *refQueue) drain(capacity float64) (bits, val float64) {
	for capacity > 0 && len(q.items) > 0 {
		head := q.items[0].chunk
		if head.Bits <= capacity {
			bits += head.Bits
			val += head.ValueBits
			capacity -= head.Bits
			q.bits -= head.Bits
			q.items = q.items[1:]
			continue
		}
		frac := capacity / head.Bits
		bits += capacity
		val += head.ValueBits * frac
		q.items[0].chunk = value.Chunk{
			Bits:      head.Bits - capacity,
			ValueBits: head.ValueBits * (1 - frac),
		}
		q.bits -= capacity
		capacity = 0
	}
	return bits, val
}

// resident returns q's live items in FIFO order.
func (q *queue) resident() []refItem {
	var out []refItem
	for _, it := range q.items[q.head:] {
		if !it.dead {
			out = append(out, refItem{chunk: it.chunk, assessed: it.assessed})
		}
	}
	return out
}

// TestQueueMatchesReference drives the queue and the reference with the
// same seeded random push/enforce/drain sequences — assessed and raw
// items, partial evictions and partial drains, and enough pushes to cross
// the compaction threshold many times — and requires identical dropped bits, drained (bits, value), q.bits and
// resident items after every step, plus conservation of bits.
func TestQueueMatchesReference(t *testing.T) {
	ranked := 0 // sequences that evicted by density
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		limit := 0.0
		if seed%5 != 0 {
			limit = rng.Range(20, 400)
		}
		rawFrac := rng.Range(0, 1)
		q := newQueue(limit)
		ref := &refQueue{limit: limit}
		var pushed, drained, dropped float64
		compactions := 0
		byDensity := false
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				// Mostly whole chunks; some zero-size pushes, which both
				// queues must ignore, and a few repeated densities to
				// exercise tie-breaking.
				bits := rng.Range(-2, 40)
				valueBits := bits * rng.Range(0, 1)
				if rng.Bool(0.2) {
					valueBits = bits / 2
				}
				c := value.Chunk{Bits: bits, ValueBits: valueBits}
				assessed := !rng.Bool(rawFrac)
				q.push(c, assessed)
				ref.push(c, assessed)
				if bits > 0 {
					pushed += bits
				}
			case op < 8:
				n := len(q.items)
				allAssessed := true
				for _, it := range ref.items {
					allAssessed = allAssessed && it.assessed
				}
				got, want := q.enforce(), ref.enforce()
				if want > 0 && allAssessed {
					byDensity = true
				}
				if got != want {
					t.Fatalf("seed %d step %d: enforce dropped %v, want %v", seed, step, got, want)
				}
				if len(q.items) < n {
					compactions++
				}
				dropped += got
			default:
				capacity := rng.Range(0, 120)
				n := len(q.items)
				gb, gv := q.drain(capacity)
				wb, wv := ref.drain(capacity)
				if gb != wb || gv != wv {
					t.Fatalf("seed %d step %d: drain(%v) = (%v, %v), want (%v, %v)", seed, step, capacity, gb, gv, wb, wv)
				}
				if len(q.items) < n {
					compactions++
				}
				drained += gb
			}
			if q.bits != ref.bits {
				t.Fatalf("seed %d step %d: q.bits %v, want %v", seed, step, q.bits, ref.bits)
			}
			res := q.resident()
			if len(res) != len(ref.items) || len(res) != q.live || len(res)+q.dead != len(q.items)-q.head {
				t.Fatalf("seed %d step %d: %d resident (live %d, dead %d of %d), want %d",
					seed, step, len(res), q.live, q.dead, len(q.items)-q.head, len(ref.items))
			}
			for i := range res {
				if res[i] != ref.items[i] {
					t.Fatalf("seed %d step %d: item %d = %+v, want %+v", seed, step, i, res[i], ref.items[i])
				}
			}
			if d := pushed - (drained + dropped + q.bits); math.Abs(d) > 1e-9*math.Max(1, pushed) {
				t.Fatalf("seed %d step %d: pushed %v != drained %v + dropped %v + resident %v", seed, step, pushed, drained, dropped, q.bits)
			}
		}
		if compactions == 0 {
			t.Fatalf("seed %d: the queue never compacted", seed)
		}
		if byDensity {
			ranked++
		}
	}
	if ranked < 10 {
		t.Fatalf("only %d of 40 sequences evicted by density", ranked)
	}
}
