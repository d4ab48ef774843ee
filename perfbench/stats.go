package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"sort"
)

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// maxOf returns the largest element of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// checks collects output checks. A failed check fails the run; it is
// never folded into a metric.
type checks struct {
	names     []string
	failures  []string
	attempted int
	failed    int
}

// expect records a named check, failing it with the formatted reason when
// cond is false. Repeated names are listed once.
func (c *checks) expect(name string, cond bool, format string, args ...any) {
	if !slices.Contains(c.names, name) {
		c.names = append(c.names, name)
	}
	if !cond {
		c.failures = append(c.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// digest accumulates a SHA-256 over formatted output values.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

// add writes one formatted line; floats are written by their exact bits so
// the digest pins output bytes, not rounding.
func (d *digest) add(format string, args ...any) {
	for i, a := range args {
		if f, ok := a.(float64); ok {
			args[i] = math.Float64bits(f)
		}
	}
	fmt.Fprintf(d.h, format+"\n", args...)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// closeRel reports whether a and b agree to a relative tolerance.
func closeRel(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

// checkDigests requires every job of the run to produce the same output
// digest and, for the default seed, that digest to equal the committed one.
func checkDigests(r *run, name string, sums []string, golden string) {
	for i, s := range sums {
		r.checks.expect(name+"_repeatable", s == sums[0], "job %d digest %s differs from job 0 digest %s", i, s, sums[0])
	}
	r.rec.digest(name, sums[0])
	if r.seed == defaultSeed {
		r.checks.expect(name, sums[0] == golden, "digest %s, committed %s", sums[0], golden)
	}
}

// digest records an output digest in the run record.
func (rec *record) digest(name, sum string) {
	if rec.Digests == nil {
		rec.Digests = map[string]string{}
	}
	rec.Digests[name] = sum
}
