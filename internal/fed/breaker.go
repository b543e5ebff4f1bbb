// Package fed is the network shard-federation subsystem: a coordinator
// that serves the full public query surface by scatter-gathering
// shard-local answers from remote shard servers (internal/serve's
// NewShard role), and a resilient HTTP client that gets it there —
// connection pooling, bounded retries with exponential backoff and
// jitter, hedged requests, per-endpoint circuit breakers fed by active
// health checks, and static-file peer discovery with live reload.
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

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-endpoint circuit breaker. Closed, it counts
// consecutive failures and opens at the threshold; open, it fast-fails
// every request until the cooldown elapses; then it half-opens and
// admits exactly one probe — success closes the circuit, failure
// reopens it (and restarts the cooldown). Success in any state resets
// the failure count. Safe for concurrent use.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool // a half-open probe is in flight

	// now is replaceable so tests can drive the cooldown clock.
	now func() time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed and admits a
// single probe; concurrent callers during the probe are rejected.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a request that reached the endpoint and was answered.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.state = breakerClosed
	b.probing = false
}

// failure records a transport-level failure (timeout, reset, 5xx).
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to open, cooldown restarts.
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
	}
}

// snapshot returns the state name for /stats and tests.
func (b *breaker) snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
