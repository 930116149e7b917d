package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of all samples at or below it. It
// sorts a copy, so xs keeps its order. An empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	return quantiles(xs, q)[0]
}

// quantiles is quantile for several q at once, sorting only once.
func quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	for i, q := range qs {
		// ceil(q·n), with slack for q·n landing a rounding error above
		// a whole number.
		rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
		rank = min(max(rank, 1), len(s))
		out[i] = s[rank-1]
	}
	return out
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of its median — the run-to-run spread the benchmark
// is judged by. Quartiles follow Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), extrapolation at the ends included.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / m
}

// span is one traced interval: a call into a layer, made by the request
// or call that parent names (-1 for a root).
type span struct {
	id, parent int
	kind       spanKind
	start, end time.Duration // offsets from the tracer's epoch
}

// selfTimes returns, per span index, the span's duration minus the part
// of its interval that its direct children cover. Children may overlap
// one another and may stick out of their parent; only the covered part
// of the parent's own interval is subtracted.
func selfTimes(spans []span) []time.Duration {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := byID[s.parent]; ok && s.parent != s.id {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return total
}
