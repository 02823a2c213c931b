package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two nearest order statistics (the "type 7"
// estimator numpy and R use by default). It returns NaN for an empty
// sample so a missing measurement can never read as a fast one.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean returns the arithmetic mean, NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, returning NaN when the base is zero: a ratio without a
// base is not a measurement.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// conserved is the sender's packet conservation law at completion:
// every packet placed on the wire is either a first send of a packet the
// receiver did not already hold, or a retransmission.
func conserved(sent, needed, restored, retransmits int) bool {
	return sent == needed-restored+retransmits
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
