package serve

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// TestStatsQuantileAccuracy records a known latency set on one route
// and requires the p50_us/p99_us that /stats reports to sit within the
// histogram's design error (one sub-bucket, under 3.2%) of the sorted
// reference, never below it, with the coarse buckets still accounting
// for every request.
func TestStatsQuantileAccuracy(t *testing.T) {
	s := testServer()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const route, n = "GET /synthetic", 1000
	st := s.eps.stat(route)
	lat := make([]time.Duration, n)
	for i := range lat {
		// 100µs .. ~1.1ms in 1.003µs steps, shuffled by a stride coprime to n.
		lat[i] = 100*time.Microsecond + time.Duration((i*387)%n)*1003*time.Nanosecond
		st.record(http.StatusOK, lat[i])
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })

	var stats struct {
		Serving struct {
			Endpoints map[string]struct {
				Count   uint64   `json:"count"`
				MeanUs  float64  `json:"mean_us"`
				P50us   float64  `json:"p50_us"`
				P99us   float64  `json:"p99_us"`
				Buckets []uint64 `json:"buckets_log2_us"`
			} `json:"endpoints"`
		} `json:"serving"`
	}
	get(t, ts, "/stats", http.StatusOK, &stats)
	ep := stats.Serving.Endpoints[route]
	if ep.Count != n {
		t.Fatalf("count = %d, want %d", ep.Count, n)
	}
	for _, c := range []struct {
		name string
		q    float64
		got  float64
	}{{"p50_us", 0.50, ep.P50us}, {"p99_us", 0.99, ep.P99us}} {
		want := float64(lat[int(c.q*float64(n-1))]) / 1e3
		if c.got < want || c.got > want*1.032 {
			t.Errorf("%s = %g, sorted reference %g: want within [0, +3.2%%]", c.name, c.got, want)
		}
	}
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	if want := float64(sum) / n / 1e3; ep.MeanUs < want*0.999 || ep.MeanUs > want*1.001 {
		t.Errorf("mean_us = %g, want %g", ep.MeanUs, want)
	}
	if len(ep.Buckets) != log2Buckets {
		t.Fatalf("buckets_log2_us has %d entries, want %d", len(ep.Buckets), log2Buckets)
	}
	var bucketed uint64
	for _, c := range ep.Buckets {
		bucketed += c
	}
	if bucketed != ep.Count {
		t.Fatalf("buckets_log2_us sums to %d, count is %d", bucketed, ep.Count)
	}
	// 100µs..1.1ms spans [64,128) .. [1024,2048) µs: entries 7 through 11.
	for k, c := range ep.Buckets {
		if (k < 7 || k > 11) && c != 0 {
			t.Errorf("buckets_log2_us[%d] = %d, want 0 outside entries 7..11", k, c)
		}
	}
}
