// Package hist is the repository's one latency histogram: log-bucketed
// in the HDR style, fixed memory, O(1) record, bounded relative error.
// Values below 2^subBits land in exact unit buckets; above that, each
// power of two is split into 2^subBits sub-buckets, so a recorded value
// is off from its bucket's upper bound by at most 1/2^subBits ≈ 3.1% —
// tight enough for tail quantiles.
//
// Recording is atomic adds only (no locks), so one Hist can sit behind
// every request of a server route while /stats reads it, and a load
// generator can equally keep one per worker and Merge them at the end.
// Readers racing writers see each counter at some recent value; the
// counters are not snapshotted together.
package hist

import (
	"math/bits"
	"sync/atomic"
)

// subBits sub-buckets per power of two: 32 → ≤3.125% relative error.
const subBits = 5

const subCount = 1 << subBits // 32

// numBuckets covers the full uint64 range: 32 exact unit buckets plus
// 32 sub-buckets for each exponent from subBits through 63.
const numBuckets = subCount + (64-subBits)*subCount

// Hist is a latency histogram safe for concurrent Record, Merge and
// reads. The zero value is empty and ready. Values are nanoseconds by
// convention, but the histogram is unit-agnostic.
type Hist struct {
	counts [numBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketIndex maps a value to its bucket. Values 0..31 are exact;
// larger values share a bucket with at most a 3.1% span.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= subBits
	sub := (v >> uint(exp-subBits)) & (subCount - 1)
	return subCount + (exp-subBits)*subCount + int(sub)
}

// bucketUpper returns the largest value mapping to bucket i.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	e := uint((i - subCount) / subCount) // exponent - subBits
	sub := uint64((i-subCount)%subCount) + subCount
	return (sub << e) + (uint64(1) << e) - 1
}

func (h *Hist) raiseMax(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Record adds one observation.
func (h *Hist) Record(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	for i := range other.counts {
		h.counts[i].Add(other.counts[i].Load())
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	h.raiseMax(other.max.Load())
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total.Load() }

// Max returns the largest recorded observation, exactly.
func (h *Hist) Max() uint64 { return h.max.Load() }

// Mean returns the exact arithmetic mean of the observations.
func (h *Hist) Mean() float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(total)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the bucket holding the observation of that rank, at
// most ~3.1% above the true value. Quantile(0) is a bound on the
// minimum, Quantile(1) on the maximum.
func (h *Hist) Quantile(q float64) uint64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(min(max(q, 0), 1) * float64(total-1))
	hi := h.max.Load()
	var seen uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > rank {
			if u := bucketUpper(i); u < hi {
				return u
			}
			return hi // never report beyond the observed max
		}
	}
	return hi
}

// Log2Buckets folds the fine buckets into n coarse power-of-two buckets
// of the given unit: entry 0 counts observations below one unit, entry
// k those in [2^(k-1), 2^k) units, and the last entry everything
// larger. Each fine bucket is placed whole, by its upper bound, so an
// observation within 3.1% below a coarse boundary may be counted one
// entry up; the entries always sum to the fine buckets' total.
func (h *Hist) Log2Buckets(unit uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		k := bits.Len64(bucketUpper(i) / unit)
		if k >= n {
			k = n - 1
		}
		out[k] += c
	}
	return out
}
