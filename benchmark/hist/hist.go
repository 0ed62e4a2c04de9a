// Package hist is a log-linear latency histogram: every power-of-two range
// of nanoseconds is cut into 64 equal sub-buckets, so a recorded value is
// off from its bucket's midpoint by at most 1/128 (0.8%), well inside the
// 2% the benchmark promises. internal/workload.Hist has one bucket per
// power of two, which is why every p50 it reports reads 2.048, 16.384 or
// 32.768 µs.
package hist

import "math/bits"

const (
	subBits = 6
	sub     = 1 << subBits
	// Values below sub nanoseconds get one bucket each; 64-subBits
	// power-of-two ranges follow.
	buckets = (64 - subBits + 1) * sub
)

// Hist counts nanosecond observations. The zero value is ready; it is not
// safe for concurrent use, so each worker records into its own and the
// results are merged.
type Hist struct {
	counts [buckets]uint64
	n      uint64
	max    uint64
}

func index(v uint64) int {
	if v < sub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // position of the leading one, >= subBits
	return (exp-subBits+1)*sub + int((v>>(uint(exp)-subBits))&(sub-1))
}

// mid returns the midpoint of bucket i.
func mid(i int) float64 {
	if i < sub {
		return float64(i)
	}
	exp := uint(i/sub) + subBits - 1
	lo := uint64(1)<<exp | uint64(i%sub)<<(exp-subBits)
	width := uint64(1) << (exp - subBits)
	return float64(lo) + float64(width-1)/2
}

// Record adds one observation of ns nanoseconds; negative values count as 0.
func (h *Hist) Record(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[index(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n }

// Max returns the largest observation, exactly.
func (h *Hist) Max() uint64 { return h.max }

// Merge adds o's observations to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset empties h.
func (h *Hist) Reset() { *h = Hist{} }

// ShareAbove returns the share of observations in buckets wholly above ns.
func (h *Hist) ShareAbove(ns float64) float64 {
	if h.n == 0 || ns < 0 {
		return 0
	}
	var above uint64
	for i := index(uint64(ns)) + 1; i < buckets; i++ {
		above += h.counts[i]
	}
	return float64(above) / float64(h.n)
}

// Quantile returns the q-quantile (0 < q <= 1) in nanoseconds: the midpoint
// of the bucket holding the ceil(q*n)-th smallest observation, or 0 when h
// is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return mid(i)
		}
	}
	return float64(h.max)
}
