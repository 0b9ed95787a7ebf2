package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median of xs (0 when empty).
func median(xs []float64) float64 { return summarize(xs).Median }

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail returns the highest whole percentile p (50 ≤ p ≤ 99) that has at
// least minBeyond samples above its nearest-rank value, and that value.
// With fewer than 2×minBeyond samples no percentile at or above the median
// qualifies, so tail reports the maximum as p = 100.
func tail(xs []float64) (p int, v float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) * float64(n) / 100)) // 1-based nearest rank
		if rank >= 1 && n-rank >= minBeyond {
			return p, s[rank-1]
		}
	}
	return 100, s[n-1]
}
