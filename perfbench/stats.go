package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p90 from 50 samples rests on the five largest, which one slow op
// moves; with ten beyond it a single outlier shifts the value by at most
// one rank.
const minBeyond = 10

// percentile returns the nearest-rank pct-th percentile of xs, or an
// error when fewer than minBeyond samples lie beyond it (p50 needs 20
// samples, p90 100 and p99 1000). xs is not modified.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := (pct*n + 99) / 100 // ceil(pct/100 * n), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d needs %d samples beyond it; have %d samples", pct, minBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the nearest-rank median without the sample-count rule, for
// diagnostics that compare two halves of one run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
