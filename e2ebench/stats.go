package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice. xs is not modified.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// minBeyond is the fewest samples a reported tail percentile must leave
// above it; a percentile with fewer is a handful of outliers, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail may fall back to, highest
// first, when the workload's preferred one leaves too few samples beyond.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// tail is a tail latency with the percentile it was taken at and the
// number of samples strictly above that rank.
type tail struct {
	Value  float64
	Pct    float64
	N      int
	Beyond int
}

// beyond counts the samples ranked above the q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLatency takes the q-quantile of xs for the highest q in the ladder,
// starting at the workload's preferred percentile, that leaves at least
// minBeyond samples beyond it. It fails when even the median would not.
func tailLatency(xs []float64, preferred float64) (tail, error) {
	for _, q := range tailLadder {
		if q > preferred {
			continue
		}
		if b := beyond(len(xs), q); b >= minBeyond {
			return tail{Value: quantile(xs, q), Pct: q, N: len(xs), Beyond: b}, nil
		}
	}
	return tail{}, fmt.Errorf("%d latency samples leave fewer than %d beyond any percentile from p%g down", len(xs), minBeyond, preferred*100)
}
