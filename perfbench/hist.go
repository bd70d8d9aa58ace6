package main

import (
	"math"
	"math/bits"
)

// hist is a preallocated log-bucketed latency histogram over nanosecond
// values. Values below subBuckets are exact; above, each power-of-two
// octave splits into subBuckets equal slices, so a bucket spans at most
// 1/subBuckets of its lower bound (0.8% relative width). Recording is a
// shift, a bit count and one increment: no allocation, no lock. Each
// caller owns its own hist; merge them once the window has ended.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
	// maxExp caps the octave count: values at or above 2^(maxExp+subBits)
	// ns (about 4.9 hours) land in the last bucket.
	maxExp      = 37
	histBuckets = subBuckets + maxExp*subBuckets
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - subBits - 1
	if exp >= maxExp {
		return histBuckets - 1
	}
	return subBuckets + exp*subBuckets + int(v>>uint(exp)) - subBuckets
}

// bucketBounds returns bucket i's half-open value range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i < subBuckets {
		return float64(i), float64(i + 1)
	}
	exp := (i - subBuckets) / subBuckets
	m := uint64(subBuckets + (i-subBuckets)%subBuckets)
	return float64(m << uint(exp)), float64((m + 1) << uint(exp))
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the
// nearest-rank sample, ceil(q·n), located by bucket and placed inside its
// bucket by linear interpolation on its rank among the bucket's samples.
// It is 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// quantileUs is quantile in microseconds.
func (h *hist) quantileUs(q float64) float64 { return h.quantile(q) / 1e3 }
