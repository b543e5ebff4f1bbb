package serve

// Serving robustness: bounded admission with load shedding, panic
// containment, and a readiness probe. Under overload a server should
// degrade by answering some requests quickly with 429 — keeping latency
// bounded for the rest — instead of queueing without limit until every
// request times out. A panicking handler should cost one 500, not the
// process. /readyz (distinct from the /healthz liveness probe) tells
// load balancers to drain while the server cannot answer at full
// quality: during a heavy background compaction, or while a federation
// shard is unreachable.

import (
	"net/http"
	"sync/atomic"
	"time"
)

// admission is a two-stage limiter: up to maxInflight requests execute
// concurrently, up to maxQueue more wait at most maxWait for a slot,
// and everything beyond that is shed immediately with 429. The bounded
// queue absorbs bursts; the wait bound keeps queued requests from
// outliving their caller's patience.
type admission struct {
	sem      chan struct{}
	maxQueue int64
	maxWait  time.Duration

	queued   atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
}

// acquire blocks until a slot is free, the wait bound expires, or the
// request is cancelled. It reports whether the request was admitted;
// callers must release() after an admitted request finishes.
func (a *admission) acquire(done <-chan struct{}) bool {
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return true
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return false
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		return true
	case <-t.C:
		a.shed.Add(1)
		return false
	case <-done:
		a.shed.Add(1)
		return false
	}
}

func (a *admission) release() { <-a.sem }

// WithAdmission bounds concurrent request execution: maxInflight
// requests run at once, maxQueue more wait up to maxWait, and the rest
// are shed with 429 and a Retry-After header. The health and readiness
// probes bypass the limiter — an overloaded server is still alive, and
// saying so must not require a slot. Returns the server for chaining.
func (s *Server) WithAdmission(maxInflight, maxQueue int, maxWait time.Duration) *Server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	if maxWait <= 0 {
		maxWait = time.Second
	}
	s.adm = &admission{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
	return s
}

// notReady returns why the server is not ready, or nil when it is:
// whatever the backend reports (a compaction in flight, a federation
// shard down).
func (s *Server) notReady() error {
	if s.ready != nil {
		return s.ready.Ready()
	}
	return nil
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.notReady(); err != nil {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			withErrorFields(map[string]any{"ready": false, "reason": err.Error()}, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// admitted applies the admission limiter to next; probe endpoints and
// servers without WithAdmission pass straight through.
func (s *Server) admitted(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.adm == nil || r.URL.Path == "/healthz" || r.URL.Path == "/readyz" {
			next.ServeHTTP(w, r)
			return
		}
		if !s.adm.acquire(r.Context().Done()) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "server overloaded; retry later")
			return
		}
		defer s.adm.release()
		next.ServeHTTP(w, r)
	})
}

// recovered turns a handler panic into one 500 response and a counter
// bump instead of a dead connection per request and a crashing test
// binary. http.ErrAbortHandler is re-raised: it is the sanctioned way
// to abort a response and must keep its net/http semantics.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.panics.Add(1)
				// Best-effort: if the handler already wrote a header this
				// is a no-op on the status line, but the connection still
				// terminates cleanly.
				httpError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
