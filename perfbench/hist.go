package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of non-negative integer samples
// (nanoseconds here). Values below 2^subBits get a bucket each; every octave
// above is split into 2^subBits equal buckets. A quantile read at a bucket
// midpoint is therefore within 2^-(subBits+1) (0.4%) relative error of the
// exact sample quantile, and the memory is the same whatever the run length.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = (64 - subBits + 1) * subCount
)

// bucketOf maps a sample to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1 // v>>e lies in [subCount, 2*subCount)
	return (e+1)*subCount + int(v>>e) - subCount
}

// bucketMid returns the midpoint of bucket i's value range.
func bucketMid(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	e := i/subCount - 1
	low := uint64(i%subCount+subCount) << e
	return float64(low) + float64(uint64(1)<<e-1)/2
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1), or NaN when
// the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// exactQuantile is the nearest-rank q-quantile of xs, which it sorts.
func exactQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return exactQuantile(xs, 0.5) }
