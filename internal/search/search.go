// Package search holds what Kodan's two exhaustive searches share: the
// selection-logic sweep over per-context actions (internal/policy) and the
// hybrid planner's placement search (internal/planner). A candidate's code
// is the sum of digit_c * radix^c, so code order is the odometer order
// with context 0 fastest. Both searches visit leaves depth-first, which is
// not code order, and both comparators are eps-based (not transitive), so
// leaves only record their keys in a Table and the winner is the one a
// code-order scan over Table.Recorded picks. Past MaxExhaustive contexts
// both fall back to HillClimb.
package search

import (
	"iter"
	"math/bits"
	"slices"
)

// MaxExhaustive bounds the exhaustive searches (4^8 = 65 536 candidates)
// and sizes their depth-first prefix stacks.
const MaxExhaustive = 8

// Table is a score table indexed by candidate code, with a bitset of the
// codes recorded. Callers pool their tables.
type Table[S any] struct {
	scores   []S
	recorded []uint64
}

// Reset sizes the table for combos codes and forgets every record.
func (t *Table[S]) Reset(combos int) {
	words := (combos + 63) / 64
	t.scores = slices.Grow(t.scores[:0], combos)[:combos]
	t.recorded = slices.Grow(t.recorded[:0], words)[:words]
	clear(t.recorded)
}

// Put records score s for candidate code.
func (t *Table[S]) Put(code int, s S) {
	t.scores[code] = s
	t.recorded[code/64] |= 1 << (code % 64)
}

// Recorded yields the recorded codes and their scores in code order.
func (t *Table[S]) Recorded() iter.Seq2[int, *S] {
	return func(yield func(int, *S) bool) {
		for w, word := range t.recorded {
			for ; word != 0; word &= word - 1 {
				code := w*64 + bits.TrailingZeros64(word)
				if !yield(code, &t.scores[code]) {
					return
				}
			}
		}
	}
}

// Decode writes code's base-radix digits to out, context 0 first.
func Decode[D ~int](code, radix int, out []D) {
	for c := range out {
		out[c] = D(code % radix)
		code /= radix
	}
}

// HillClimb improves cur in place: it sweeps the contexts in order, tries
// every other digit in 0..options-1 for each, and keeps a change that eval
// finds feasible and better prefers, until a pass changes nothing. It
// returns the final evaluation; from an infeasible start it returns that
// start's evaluation and ok=false, leaving cur untouched.
func HillClimb[D ~int, E any](cur []D, options int, eval func([]D) (E, bool), better func(a, b E) bool) (best E, ok bool) {
	best, ok = eval(cur)
	if !ok {
		return best, false
	}
	for improved := true; improved; {
		improved = false
		for i := range cur {
			orig := cur[i]
			for d := D(0); d < D(options); d++ {
				if d == orig {
					continue
				}
				cur[i] = d
				if cand, feasible := eval(cur); feasible && better(cand, best) {
					best, improved, orig = cand, true, d
				} else {
					cur[i] = orig
				}
			}
		}
	}
	return best, true
}
