package main

import (
	"math"
	"sort"

	"symmerge/internal/obs"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so numbers printed here match a reader's check in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// hist is a latency histogram merged across runs: observation counts keyed
// by the upper bound (µs) of the obs registry's power-of-two buckets.
type hist map[uint64]uint64

// add folds one registry snapshot, whose buckets are cumulative, into h.
func (h hist) add(s obs.HistSnap) {
	var prev uint64
	for _, b := range s.Buckets {
		h[b.LeUS] += b.N - prev
		prev = b.N
	}
}

// p99 estimates the 99th percentile as the upper bound of the bucket it
// falls in, the way the obs registry does; 0 for an empty histogram.
func (h hist) p99() float64 {
	les := make([]uint64, 0, len(h))
	var total uint64
	for le, n := range h {
		les = append(les, le)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	target := max(uint64(0.99*float64(total)), 1)
	var cum uint64
	for _, le := range les {
		cum += h[le]
		if cum >= target {
			return float64(le)
		}
	}
	return float64(les[len(les)-1])
}
