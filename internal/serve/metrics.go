package serve

// Per-endpoint serving metrics: request and error counters and a
// latency histogram per route, reported by /stats under
// serving.endpoints. This is what a load generator (cmd/loadgen)
// sanity-checks its own accounting against, and the substrate a later
// /metrics (Prometheus) endpoint will export.
//
// Latencies are recorded in nanoseconds into the repository's one
// histogram (internal/hist): p50_us/p99_us are at most 3.125% above
// the true quantile. buckets_log2_us is that histogram folded to
// powers of two in microseconds: entry 0 counts requests under 1µs,
// entry k requests in [2^(k-1), 2^k) µs, and the last entry everything
// slower (~4.2s and beyond).
//
// Requests shed by the admission limiter and panics are counted in the
// serving section, not here: both are handled by middleware outside the
// per-route mux.

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// log2Buckets is the length of buckets_log2_us: <1µs .. >=4.2s.
const log2Buckets = 24

type epStat struct {
	errors  atomic.Uint64 // responses with status >= 400
	latency hist.Hist     // every response, in ns
}

func (e *epStat) record(status int, d time.Duration) {
	if status >= 400 {
		e.errors.Add(1)
	}
	e.latency.Record(uint64(d))
}

// snapshot renders the endpoint's counters for /stats.
func (e *epStat) snapshot() map[string]any {
	h := &e.latency
	out := map[string]any{
		"count":  h.Count(),
		"errors": e.errors.Load(),
	}
	if h.Count() > 0 {
		out["mean_us"] = h.Mean() / 1e3
		out["p50_us"] = float64(h.Quantile(0.50)) / 1e3
		out["p99_us"] = float64(h.Quantile(0.99)) / 1e3
		out["buckets_log2_us"] = h.Log2Buckets(1000, log2Buckets)
	}
	return out
}

// endpointMetrics holds one epStat per registered route. Routes are
// registered once, when Handler builds the mux; per-request updates are
// lock-free atomics.
type endpointMetrics struct {
	mu      sync.Mutex
	byRoute map[string]*epStat
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{byRoute: make(map[string]*epStat)}
}

func (m *endpointMetrics) stat(route string) *epStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.byRoute[route]
	if st == nil {
		st = &epStat{}
		m.byRoute[route] = st
	}
	return st
}

// snapshot renders every route's counters keyed by route name.
func (m *endpointMetrics) snapshot() map[string]any {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]any, len(m.byRoute))
	for route, st := range m.byRoute {
		out[route] = st.snapshot()
	}
	return out
}

// statusWriter captures the response status for the metrics middleware.
// Pooled: the hot path must not pay an allocation for its own
// observability.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

var swPool = sync.Pool{New: func() any { return &statusWriter{} }}

// instrument wraps a route handler with per-endpoint accounting. A
// handler that panics before writing is recorded as a 500 (the
// recovered middleware outside the mux writes the actual response).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	st := s.eps.stat(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, 0
		start := time.Now()
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusInternalServerError
			}
			st.record(status, time.Since(start))
			sw.ResponseWriter = nil
			swPool.Put(sw)
		}()
		h(sw, r)
	}
}
