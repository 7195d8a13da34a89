package main

import (
	"math"
	"math/bits"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
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

// geomean is the geometric mean of positive values; 0 if any is not
// positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hist is a log-linear histogram of non-negative integer samples
// (nanoseconds): 16 sub-buckets per power of two, so a percentile read
// back is within about 6% of the true sample. It costs no allocation per
// sample, which keeps the traced run's bracket spans cheap.
type hist struct {
	counts [64 * 16]uint64
	n      uint64
}

func histBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(v) - 5 // v >> e lies in [16, 32)
	return (e+1)*16 + int(v>>uint(e)) - 16
}

// histLow is the smallest value in bucket b.
func histLow(b int) uint64 {
	if b < 16 {
		return uint64(b)
	}
	e := b/16 - 1
	return uint64(16+b%16) << uint(e)
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return float64(histLow(b))
		}
	}
	return float64(histLow(len(h.counts) - 1))
}
