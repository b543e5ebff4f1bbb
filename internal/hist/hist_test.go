package hist

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// equal reports whether two histograms hold identical state.
func equal(a, b *Hist) bool {
	for i := range a.counts {
		if a.counts[i].Load() != b.counts[i].Load() {
			return false
		}
	}
	return a.Count() == b.Count() && a.sum.Load() == b.sum.Load() && a.Max() == b.Max()
}

// TestHistSmallValuesExact: values below 2^subBits occupy exact unit
// buckets, so their quantiles are exact.
func TestHistSmallValuesExact(t *testing.T) {
	var h Hist
	for v := uint64(0); v < subCount; v++ {
		h.Record(v)
	}
	for v := uint64(0); v < subCount; v++ {
		q := float64(v) / float64(subCount-1) // rank = q*(count-1) = v exactly
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%.3f) = %d, want exactly %d", q, got, v)
		}
	}
}

// TestHistQuantileVsReference compares histogram quantiles against the
// exact sorted-slice answer on heavy-tailed data: every estimate must
// sit within the histogram's design error (one sub-bucket, ≤3.125%)
// above the true value.
func TestHistQuantileVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	var h Hist
	vals := make([]uint64, n)
	for i := range vals {
		// Lognormal-ish latencies: ~µs to ~seconds in ns.
		v := uint64(math.Exp(rng.NormFloat64()*2+12)) + 1
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		exact := vals[int(q*float64(n-1))]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q=%v: estimate %d below exact %d (upper-bound property violated)", q, got, exact)
		}
		maxErr := float64(exact) / subCount // one sub-bucket of relative error
		if float64(got-exact) > maxErr+1 {
			t.Fatalf("q=%v: estimate %d vs exact %d, error %.2f%% exceeds %.2f%%",
				q, got, exact, 100*float64(got-exact)/float64(exact), 100.0/subCount)
		}
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if h.Max() != vals[n-1] {
		t.Fatalf("max = %d, want %d", h.Max(), vals[n-1])
	}
}

// TestHistMerge: recording a stream into k shards and merging must give
// bit-identical results to recording it into one histogram — the merge
// used to fold per-worker shards cannot lose or distort anything.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var whole Hist
	shards := make([]Hist, 7)
	for i := 0; i < 50000; i++ {
		v := uint64(rng.Intn(1 << 30))
		whole.Record(v)
		shards[i%len(shards)].Record(v)
	}
	var merged Hist
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if !equal(&merged, &whole) {
		t.Fatal("merged shards differ from the single-histogram recording")
	}
}

// TestHistConcurrentRecord: goroutines recording into one histogram
// (a server route's case) while another reads it lose nothing — the
// result is bit-identical to the same stream recorded serially. Run
// under -race this also pins that Record, Merge and the readers share
// no unsynchronized state.
func TestHistConcurrentRecord(t *testing.T) {
	const writers, perWriter = 8, 20000
	streams := make([][]uint64, writers)
	var serial Hist
	for w := range streams {
		rng := rand.New(rand.NewSource(int64(10 + w)))
		streams[w] = make([]uint64, perWriter)
		for i := range streams[w] {
			v := uint64(math.Exp(rng.NormFloat64()*2 + 12))
			streams[w][i] = v
			serial.Record(v)
		}
	}
	var shared, side Hist
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(vals []uint64) {
			defer wg.Done()
			for _, v := range vals {
				shared.Record(v)
			}
		}(streams[w])
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p50, p99 := shared.Quantile(0.5), shared.Quantile(0.99); p50 > p99 {
				t.Errorf("mid-run p50 %d above p99 %d", p50, p99)
				return
			}
			_ = shared.Mean()
			_ = shared.Log2Buckets(1000, 24)
			side.Merge(&shared)
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if !equal(&shared, &serial) {
		t.Fatal("concurrent recording differs from the serial recording of the same values")
	}
}

// TestHistLog2Buckets: the coarse fold keeps every observation, puts
// each where bits.Len64(value/unit) says unless the value sits within
// one fine bucket below a coarse boundary (then one entry up), and
// clamps the overflow into the last entry.
func TestHistLog2Buckets(t *testing.T) {
	const unit, n = 1000, 24
	rng := rand.New(rand.NewSource(4))
	var h Hist
	exact := make([]uint64, n)
	vals := make([]uint64, 100000)
	for i := range vals {
		v := uint64(math.Exp(rng.NormFloat64()*3 + 13))
		vals[i] = v
		h.Record(v)
		k := bits.Len64(v / unit)
		if k >= n {
			k = n - 1
		}
		exact[k]++
	}
	got := h.Log2Buckets(unit, n)
	if len(got) != n {
		t.Fatalf("%d entries, want %d", len(got), n)
	}
	var sum uint64
	for _, c := range got {
		sum += c
	}
	if sum != h.Count() {
		t.Fatalf("entries sum to %d, count is %d", sum, h.Count())
	}
	// The fold never moves an observation to a lower entry.
	var cumGot, cumExact uint64
	for k := 0; k < n; k++ {
		cumGot += got[k]
		cumExact += exact[k]
		if cumGot > cumExact {
			t.Fatalf("entry %d: fold moved observations down (cum %d > exact %d)", k, cumGot, cumExact)
		}
	}
	// Only values within one sub-bucket (3.125%) below a boundary move.
	var movable uint64
	for _, v := range vals {
		if k := bits.Len64(v / unit); k < n-1 {
			bound := uint64(unit) << k
			if float64(v) >= float64(bound)*(1-1.0/subCount) {
				movable++
			}
		}
	}
	var moved uint64
	cumGot, cumExact = 0, 0
	for k := 0; k < n; k++ {
		cumGot += got[k]
		cumExact += exact[k]
		moved += cumExact - cumGot
	}
	if moved > movable {
		t.Fatalf("%d observations moved up, only %d sit within 3.125%% of a boundary", moved, movable)
	}
	if moved == 0 {
		t.Fatal("no observation near a boundary: the test data does not exercise the fold's rounding")
	}
}

// TestHistBucketRoundTrip: every bucket's upper bound maps back to that
// bucket, and bucket boundaries are monotone — the index math has no
// holes or overlaps.
func TestHistBucketRoundTrip(t *testing.T) {
	prev := uint64(0)
	for i := 0; i < numBuckets; i++ {
		u := bucketUpper(i)
		if bucketIndex(u) != i {
			t.Fatalf("bucketUpper(%d) = %d maps to bucket %d", i, u, bucketIndex(u))
		}
		if i > 0 && u <= prev {
			t.Fatalf("bucket %d upper %d not above bucket %d upper %d", i, u, i-1, prev)
		}
		prev = u
	}
	// And a spot check across magnitudes: a value never lands below its
	// bucket's range.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63())
		idx := bucketIndex(v)
		if v > bucketUpper(idx) {
			t.Fatalf("value %d above its bucket %d upper %d", v, idx, bucketUpper(idx))
		}
		if idx > 0 && v <= bucketUpper(idx-1) {
			t.Fatalf("value %d belongs below bucket %d", v, idx)
		}
	}
}

// BenchmarkHistRecord is the per-observation cost both callers pay: a
// server route on every request, a load-generator worker on every
// response. Uncontended here, as on a worker's private histogram.
func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	v := uint64(1500)
	for i := 0; i < b.N; i++ {
		h.Record(v)
		v = v*3 + 1000 // walk the buckets
		if v > 1<<40 {
			v = 1500
		}
	}
}
