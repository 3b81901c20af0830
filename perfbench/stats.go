package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile (0..1) by linear interpolation
// between order statistics; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailQuantile is the highest of 0.99, 0.98, ... 0.50 that leaves at
// least ten samples beyond it, so a tail figure always rests on ten
// observations. It returns the quantile and its value.
func (s samples) tailQuantile() (q, v float64) { return s.tailQuantileOf(0.99, 10) }

// tailQuantileOf is the highest of the same candidates not above
// ceiling that leaves at least minBeyond samples beyond it.
func (s samples) tailQuantileOf(ceiling float64, minBeyond int) (q, v float64) {
	for _, cand := range []float64{0.99, 0.98, 0.975, 0.97, 0.96, 0.95, 0.9, 0.8, 0.75, 0.5} {
		if cand <= ceiling && float64(len(s))*(1-cand) >= float64(minBeyond) {
			return cand, s.quantile(cand)
		}
	}
	return 0.5, s.median()
}

func median(xs []float64) float64 { return samples(xs).median() }
