package search

import (
	"slices"
	"testing"
)

func recorded[S any](t *Table[S]) (codes []int, scores []S) {
	for code, s := range t.Recorded() {
		codes = append(codes, code)
		scores = append(scores, *s)
	}
	return codes, scores
}

// TestRecordedYieldsCodeOrder records a sparse set out of order, across
// bitset words, and requires the scan to yield it in code order.
func TestRecordedYieldsCodeOrder(t *testing.T) {
	var tab Table[float64]
	tab.Reset(200)
	for _, code := range []int{199, 3, 64, 0, 127, 65, 63} {
		tab.Put(code, float64(code)/2)
	}
	codes, scores := recorded(&tab)
	if want := []int{0, 3, 63, 64, 65, 127, 199}; !slices.Equal(codes, want) {
		t.Fatalf("codes %v, want %v", codes, want)
	}
	for i, code := range codes {
		if scores[i] != float64(code)/2 {
			t.Fatalf("code %d scored %v, want %v", code, scores[i], float64(code)/2)
		}
	}
	// Breaking out of the scan stops it.
	n := 0
	for range tab.Recorded() {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("scan ran %d steps after break", n)
	}
}

// TestResetForgetsRecords reuses a table at a smaller and then a larger
// size: no earlier record survives either reset.
func TestResetForgetsRecords(t *testing.T) {
	var tab Table[int]
	tab.Reset(256)
	for code := 0; code < 256; code += 5 {
		tab.Put(code, code)
	}
	tab.Reset(16)
	if codes, _ := recorded(&tab); len(codes) != 0 {
		t.Fatalf("records %v survived a reset", codes)
	}
	tab.Put(7, 70)
	tab.Reset(1024)
	tab.Put(1000, 1)
	if codes, scores := recorded(&tab); !slices.Equal(codes, []int{1000}) || scores[0] != 1 {
		t.Fatalf("after a growing reset: codes %v scores %v", codes, scores)
	}
}

type digit int

// TestDecodeRoundTrips decodes every code of a few radices and widths and
// re-encodes it.
func TestDecodeRoundTrips(t *testing.T) {
	for _, radix := range []int{2, 3, 4} {
		for k := 0; k <= 4; k++ {
			combos := 1
			for range k {
				combos *= radix
			}
			out := make([]digit, k)
			for code := 0; code < combos; code++ {
				Decode(code, radix, out)
				got, pow := 0, 1
				for _, d := range out {
					if d < 0 || int(d) >= radix {
						t.Fatalf("radix %d code %d: digit %d out of range", radix, code, d)
					}
					got += int(d) * pow
					pow *= radix
				}
				if got != code {
					t.Fatalf("radix %d: %d decoded to %v, re-encoded %d", radix, code, out, got)
				}
			}
		}
	}
	out := []digit{9, 9, 9}
	Decode(1+2*4, 4, out)
	if !slices.Equal(out, []digit{1, 2, 0}) {
		t.Fatalf("context 0 must be the fastest digit: %v", out)
	}
}

// TestHillClimbInfeasibleStart leaves the start untouched and reports it.
func TestHillClimbInfeasibleStart(t *testing.T) {
	cur := []digit{2, 1, 0}
	calls := 0
	_, ok := HillClimb(cur, 3, func([]digit) (int, bool) {
		calls++
		return 0, false
	}, func(a, b int) bool { return a > b })
	if ok || !slices.Equal(cur, []digit{2, 1, 0}) || calls != 1 {
		t.Fatalf("ok=%v cur=%v after %d evaluations, want false [2 1 0] after 1", ok, cur, calls)
	}
}

// TestHillClimbClimbs maximizes a separable score with one infeasible
// digit: the climb must skip it and settle on the best feasible digits.
func TestHillClimbClimbs(t *testing.T) {
	weights := [][]int{{0, 5, 9}, {4, 1, 2}, {3, 3, 8}}
	eval := func(cur []digit) (int, bool) {
		s := 0
		for c, d := range cur {
			if c == 0 && d == 2 {
				return 0, false
			}
			s += weights[c][d]
		}
		return s, true
	}
	cur := make([]digit, 3)
	best, ok := HillClimb(cur, 3, eval, func(a, b int) bool { return a > b })
	if !ok || best != 17 || !slices.Equal(cur, []digit{1, 0, 2}) {
		t.Fatalf("ok=%v best=%d cur=%v, want true 17 [1 0 2]", ok, best, cur)
	}
}
