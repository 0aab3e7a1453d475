package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed op: its latency and the class (program or request
// kind) it belongs to.
type sample struct {
	class int
	d     time.Duration
}

// median returns the middle value of vs (the mean of the middle two for an
// even count); vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(vs []float64) float64 {
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// rank is the 1-based nearest-rank position of quantile q in a sorted sample
// of n.
func rank(q float64, n int) int {
	return max(1, int(math.Ceil(q*float64(n))))
}

// quantileMs takes the latency at quantile q within each class and combines
// the classes with the geometric mean, in milliseconds. Programs in one
// workload differ 20x in run time, so a pooled median would sit on the
// boundary between two programs' distributions and a pooled p99 would see
// only the slowest program; per-class ranks weigh every program equally.
// With pooled set, all samples form one class.
func quantileMs(samples []sample, pooled bool, q float64) float64 {
	byClass := map[int][]float64{}
	for _, s := range samples {
		c := s.class
		if pooled {
			c = 0
		}
		byClass[c] = append(byClass[c], float64(s.d)/float64(time.Millisecond))
	}
	var qs []float64
	for _, vs := range byClass {
		sort.Float64s(vs)
		qs = append(qs, vs[rank(q, len(vs))-1])
	}
	return geomean(qs)
}
