package obs

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed exponential duration buckets, 1µs doubling
// up to ~2.1s, then +Inf. Fixed bounds keep Observe branch-free (the bucket
// index is a bit-length, not a search over configured bounds) and make every
// histogram in the process mergeable and comparable. The range brackets the
// serving stack: sub-µs cache hits land in the first bucket, and anything
// beyond 2s is tail enough that +Inf suffices.
const (
	histBuckets = 22 // finite buckets: le = 1µs << i, i = 0..21
	histStripes = 4  // fewer than counters: Observe touches 2 words, not 1
)

// histStripe is one stripe of a histogram: bucket counts plus the running
// sum of observed nanoseconds. 24 atomic words = 192 bytes = 3 cache lines
// exactly, so consecutive stripes in the array never share a line.
type histStripe struct {
	counts [histBuckets + 1]atomic.Int64 // [histBuckets] is +Inf
	sum    atomic.Int64                  // nanoseconds
}

// Histogram is a latency histogram with fixed exponential buckets, striped
// for concurrent recording. The zero value is ready to use.
type Histogram struct {
	s [histStripes]histStripe
}

// bucketIndex maps a duration to its bucket: the smallest i with
// d <= 1µs<<i, or the +Inf slot. Non-positive durations land in bucket 0.
func bucketIndex(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	us := (uint64(d) + 999) / 1000 // ceil to microseconds
	i := bits.Len64(us - 1)        // smallest i with us <= 1<<i
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// Observe records one duration: two atomic adds on a stack-picked stripe,
// no allocation, no lock.
func (h *Histogram) Observe(d time.Duration) {
	st := &h.s[stripeIndex()&(histStripes-1)]
	st.counts[bucketIndex(d)].Add(1)
	st.sum.Add(int64(d))
}

// snapshot sums the stripes into per-bucket (non-cumulative) counts and the
// total observed nanoseconds. Concurrent Observes may straddle the reads;
// each bucket read is itself atomic, so the result is a consistent-enough
// scrape, never a torn value.
func (h *Histogram) snapshot() (counts [histBuckets + 1]int64, sumNanos int64) {
	for i := range h.s {
		st := &h.s[i]
		for j := range st.counts {
			counts[j] += st.counts[j].Load()
		}
		sumNanos += st.sum.Load()
	}
	return counts, sumNanos
}

// Count reports the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.s {
		st := &h.s[i]
		for j := range st.counts {
			total += st.counts[j].Load()
		}
	}
	return total
}

// histLe holds the rendered upper bounds in seconds ("1e-06", "2e-06", ...),
// computed once: exposition never formats floats per scrape line.
var histLe = func() [histBuckets]string {
	var le [histBuckets]string
	for i := range le {
		le[i] = strconv.FormatFloat(float64(uint64(1000)<<i)/1e9, 'g', -1, 64)
	}
	return le
}()
