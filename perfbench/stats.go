package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond the reported tail
// percentile, so that one outlier cannot set it.
const minTail = 10

// dist summarises a latency sample: the median and the highest
// percentile that still has at least minTail samples beyond it.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"` // the percentile Tail stands for
}

// distOf summarises xs. With fewer than 2×minTail+1 samples no
// percentile above the median has minTail samples beyond it, and the
// tail falls back to the median.
func distOf(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - minTail - 1
	if mid := (n - 1) / 2; k < mid {
		k = mid
	}
	return dist{N: n, P50: median(s), Tail: s[k], TailPct: 100 * float64(k+1) / float64(n)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 with the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so
// spreads computed here match spreads computed from the same runs with
// that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean is the geometric mean of the map's values.
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range m {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(m)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
