package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail: the
// tail of n samples is the highest percentile that still has at least
// this many samples above it, so it never rests on one or two outliers.
const minBeyond = 10

// Tail is the highest percentile of a sample with at least minBeyond
// samples beyond it.
type Tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN for an empty sample. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least minBeyond
// samples strictly after it in sorted order: with n samples that is the
// (n−minBeyond)-th smallest value, at percentile 100·(n−minBeyond)/n.
// ok is false when the sample is too small to have such a percentile.
func tail(xs []float64) (t Tail, ok bool) {
	n := len(xs)
	k := n - minBeyond
	if k < 1 {
		return Tail{Samples: n}, false
	}
	s := sorted(xs)
	return Tail{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), Samples: n}, true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// failShare is the one-sided 95% Wilson upper bound on the failure
// probability after failed failures in attempted tries. It is used in
// place of the raw share failed/attempted so a clean run reports a
// small positive number (z²/(n+z²)) instead of 0, and a single failure
// still raises it by more than half.
func failShare(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	const z = 1.6448536269514722 // one-sided 95%
	n := float64(attempted)
	p := float64(failed) / n
	z2 := z * z
	centre := p + z2/(2*n)
	spread := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	return (centre + spread) / (1 + z2/n)
}
