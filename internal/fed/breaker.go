// Package fed is the network shard-federation subsystem: a coordinator
// that serves the full public query surface by scatter-gathering
// shard-local answers from remote shard servers (internal/serve's
// NewShard role), and a resilient HTTP client that gets it there —
// connection pooling, bounded retries with exponential backoff and
// jitter, hedged requests, one circuit breaker per endpoint that only
// a probe answered with the shard's own version closes, and static-file
// peer discovery with live reload.
//
// The coordinator routes with model.Routing: which shard owns a vertex,
// and each vertex's boundary adjacency, merged into the shard's sorted
// answer. The single-process server of the same build answers from one
// compiled summary instead (the union of the shard hierarchies, with
// every boundary edge a leaf–leaf p-edge). Both are lossless, so their
// neighbor lists and edge answers are byte-identical; PageRank runs on
// that union in both, so it is too.
package fed

import (
	"sync"
	"time"
)

// breaker is an endpoint's one admission state: closed, requests go
// to it; open, they fast-fail. It opens after threshold consecutive
// failures, or at once when any reply, a probe's or a request's, lacks
// the shard's version: another build or shard is behind the address.
// Only a passing probe closes it: live traffic resets the failure
// count but never readmits an open endpoint. Safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	open      bool
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time // open: when the current cooldown started
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// closed reports whether requests may go to the endpoint.
func (b *breaker) closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open
}

// trial claims the readmission probe of an open breaker whose cooldown
// has passed, restarting the cooldown so concurrent callers do not
// probe too; the probe's outcome then closes or keeps it open.
func (b *breaker) trial() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	if !b.open || now.Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.openedAt = now
	return true
}

// success records a request the endpoint answered.
func (b *breaker) success() {
	b.mu.Lock()
	b.failures = 0
	b.mu.Unlock()
}

// failure records a failed request or liveness probe (timeout, reset,
// 5xx); at the threshold it opens.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failures++; !b.open && b.failures >= b.threshold {
		b.open, b.openedAt = true, time.Now()
	}
}

// trip opens the breaker at once: the endpoint is not who it must be.
func (b *breaker) trip() {
	b.mu.Lock()
	b.open, b.openedAt = true, time.Now()
	b.mu.Unlock()
}

// pass closes the breaker: a probe found the endpoint alive and, with
// an epoch pinned, stamping its shard's version.
func (b *breaker) pass() {
	b.mu.Lock()
	b.open, b.failures = false, 0
	b.mu.Unlock()
}

// snapshot returns the state name for /stats and tests.
func (b *breaker) snapshot() string {
	if b.closed() {
		return "closed"
	}
	return "open"
}
