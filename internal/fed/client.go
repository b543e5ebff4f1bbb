package fed

// The resilient scatter-gather client. Every shard-local call goes
// through do(): pick endpoints (rotating across replicas, skipping
// open circuit breakers), race a hedged second attempt when the first
// is slow, classify the outcome (4xx responses are terminal — the
// request itself is wrong and retrying cannot help; network errors and
// 5xx are retryable), back off exponentially with jitter between
// retries, and wrap whatever remains after the budget in a ShardError
// naming the shard so the coordinator can surface *which* piece of the
// federation is down. An endpoint's breaker is its only state: failed
// requests, or one reply without the shard's version (serve.ShardVersion
// of the pinned epoch), open it; only a probe — one GET /healthz —
// closes it. The health loop probes every endpoint; without one, the
// first pick after an open breaker's cooldown probes inline. Every
// call is one synchronous exchange on a pooled connection
// (transport.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config tunes the client's resilience. Zero values take the defaults
// noted on each field. The transport itself has no settings: plain
// HTTP/1.1 over TCP, up to 32 idle connections per endpoint, each
// dropped after 90 s idle; a reply body is capped at 8 MiB (JSON) or
// 256 MiB (binary batch).
type Config struct {
	// Timeout bounds each individual attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of re-attempts after the first (default 2,
	// so 3 attempts total; 0 keeps one retryable attempt budget of 1 —
	// set via RetriesSet for a literal zero).
	Retries int
	// RetriesSet marks Retries as deliberate even when 0.
	RetriesSet bool
	// BackoffBase is the first retry delay (default 25ms); each retry
	// doubles it, capped at BackoffCap (default 1s), plus up to 50%
	// random jitter.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeDelay races a second replica when the first attempt has not
	// answered within the delay (0 disables hedging; only fires when
	// the shard has a second usable endpoint).
	HedgeDelay time.Duration
	// BreakerFailures consecutive failures open an endpoint's circuit
	// (default 3); BreakerCooldown after it opened (default 1s), and
	// after each failed probe since, the next probe may readmit it.
	BreakerFailures int
	BreakerCooldown time.Duration
	// HealthInterval spaces active health probes (0 disables the loop;
	// start it with StartHealth).
	HealthInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries <= 0 && !c.RetriesSet {
		c.Retries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// endpoint is one replica of one shard, with its breaker. Endpoints
// are keyed by URL across peer reloads, so breaker state survives a
// SIGHUP that keeps the URL.
type endpoint struct {
	url   string
	conns *connPool
	brk   *breaker
}

// ShardError marks a shard-level failure: the wrapped error exhausted
// the retry budget (or was terminal) against every usable endpoint of
// one shard. Through ErrorFields, serve answers it 503 naming the shard.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// ErrorFields adds the failed shard to serve's JSON error body.
func (e *ShardError) ErrorFields() map[string]any { return map[string]any{"shard": e.Shard} }

// statusError is a non-2xx response; 4xx are terminal.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return fmt.Sprintf("http %d: %s", e.status, e.msg) }

func isTerminal(err error) bool {
	var he *statusError
	return errors.As(err, &he) && he.status >= 400 && he.status < 500
}

// Stats is a point-in-time snapshot of the client's resilience state,
// served by the coordinator's /stats and asserted on by tests.
type Stats struct {
	Attempts uint64          `json:"attempts"`
	Retries  uint64          `json:"retries"`
	Hedges   uint64          `json:"hedges"`
	Shards   []ShardEndpoint `json:"shards"`
}

// ShardEndpoint describes one endpoint's breaker: "closed" or "open".
type ShardEndpoint struct {
	Shard   int    `json:"shard"`
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
}

// Client is the resilient HTTP client of the federation: one instance
// per coordinator, safe for concurrent use.
type Client struct {
	cfg      Config
	epoch    string   // the peer set's epoch ("": unpinned)
	versions []uint64 // per shard, the X-Summary-Version of every reply (0: any)

	mu     sync.RWMutex
	shards [][]*endpoint

	rr       []atomic.Uint64 // per-shard round-robin cursor
	attempts atomic.Uint64
	retries  atomic.Uint64
	hedges   atomic.Uint64

	jmu sync.Mutex
	rng *rand.Rand
}

// NewClient builds a client over a validated peer set, pinned to its
// epoch when it names one.
func NewClient(p *Peers, cfg Config) (*Client, error) {
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	c := &Client{
		cfg:      cfg.withDefaults(),
		epoch:    p.Epoch,
		versions: make([]uint64, len(p.Shards)),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if c.epoch != "" {
		for s := range c.versions {
			c.versions[s] = serve.ShardVersion(c.epoch, s)
		}
	}
	c.install(p)
	return c, nil
}

// install replaces the endpoint table, carrying breaker and connection
// state over for URLs that persist; endpoints that leave close their
// idle connections.
func (c *Client) install(p *Peers) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, kept := map[string]*endpoint{}, map[string]bool{}
	for _, eps := range c.shards {
		for _, ep := range eps {
			prev[ep.url] = ep
		}
	}
	shards := make([][]*endpoint, len(p.Shards))
	for s, urls := range p.Shards {
		shards[s] = make([]*endpoint, len(urls))
		for i, u := range urls {
			if ep, ok := prev[u]; ok {
				shards[s][i] = ep
				kept[u] = true
				continue
			}
			shards[s][i] = &endpoint{url: u, conns: newConnPool(u), brk: newBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown)}
		}
	}
	for u, ep := range prev {
		if !kept[u] {
			ep.conns.closeIdle()
		}
	}
	c.shards = shards
	if len(c.rr) != len(shards) {
		c.rr = make([]atomic.Uint64, len(shards))
	}
}

// Reload swaps in a new peer set (e.g. after SIGHUP). The shard count
// must not change — shard ownership is fixed by the artifact, only
// endpoint addresses move — and an epoch the file names must be the
// client's.
func (c *Client) Reload(p *Peers) error {
	if err := p.validate(); err != nil {
		return fmt.Errorf("fed: %w", err)
	}
	if p.Epoch != "" && p.Epoch != c.epoch {
		return fmt.Errorf("fed: peers file epoch %.12s... does not match the client's %.12s... — refusing to federate mismatched epochs", p.Epoch, c.epoch)
	}
	c.mu.RLock()
	cur := len(c.shards)
	c.mu.RUnlock()
	if len(p.Shards) != cur {
		return fmt.Errorf("fed: peers file lists %d shards, federation has %d", len(p.Shards), cur)
	}
	c.install(p)
	return nil
}

// NumShards returns the number of shards the client routes to.
func (c *Client) NumShards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.shards)
}

// Snapshot reports the client's resilience counters and per-endpoint
// breaker state.
func (c *Client) Snapshot() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Hedges:   c.hedges.Load(),
	}
	for s, eps := range c.shards {
		for _, ep := range eps {
			st.Shards = append(st.Shards, ShardEndpoint{
				Shard:   s,
				URL:     ep.url,
				Breaker: ep.brk.snapshot(),
			})
		}
	}
	return st
}

// pick selects up to two endpoints for one attempt round, rotated
// across replicas: closed breakers, and an open one whose cooldown has
// passed if the readmission probe it runs inline here passes.
func (c *Client) pick(ctx context.Context, shard int) []*endpoint {
	c.mu.RLock()
	eps := c.shards[shard]
	start := int(c.rr[shard].Add(1) - 1)
	c.mu.RUnlock()
	picked := make([]*endpoint, 0, 2)
	for i := 0; i < len(eps) && len(picked) < 2; i++ {
		ep := eps[(start+i)%len(eps)]
		if ep.brk.closed() || ep.brk.trial() && c.probe(ctx, shard, ep) {
			picked = append(picked, ep)
		}
	}
	return picked
}

// backoff sleeps the exponential-plus-jitter delay for retry round
// attempt (1-based), or returns early when ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	c.jmu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.jmu.Unlock()
	select {
	case <-time.After(d + jitter):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// op is one shard-local operation against one endpoint.
type op func(ctx context.Context, ep *endpoint) (any, error)

// call runs one attempt against one endpoint, bounded by the
// per-attempt timeout, and reports the outcome to the endpoint's
// breaker: success or a terminal (4xx) answer resets its failure count
// — the endpoint is alive and answering — a reply without the shard's
// version opens it, and network failures and 5xx count against it. A
// cancellation inherited from the parent (hedge winner elsewhere,
// caller gone) records nothing.
func (c *Client) call(ctx context.Context, ep *endpoint, f op) (any, error) {
	c.attempts.Add(1)
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	v, err := f(actx, ep)
	switch {
	case err == nil:
		ep.brk.success()
		return v, nil
	case errors.Is(err, errIdentity):
		ep.brk.trip()
		return nil, err
	case isTerminal(err):
		ep.brk.success()
		return nil, err
	case ctx.Err() != nil:
		return nil, ctx.Err()
	default:
		ep.brk.failure()
		return nil, err
	}
}

// attempt runs one retry round: the primary endpoint immediately, a
// hedged second endpoint if the primary has not settled within
// HedgeDelay. The first success wins and cancels the other attempt;
// the round fails only when every launched attempt has failed.
func (c *Client) attempt(ctx context.Context, eps []*endpoint, f op) (any, error) {
	if len(eps) == 1 || c.cfg.HedgeDelay <= 0 {
		return c.call(ctx, eps[0], f)
	}
	type result struct {
		v   any
		err error
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, 2)
	launch := func(ep *endpoint) {
		go func() {
			v, err := c.call(rctx, ep, f)
			results <- result{v, err}
		}()
	}
	launch(eps[0])
	inflight := 1
	hedge := time.NewTimer(c.cfg.HedgeDelay)
	defer hedge.Stop()
	var firstErr error
	for inflight > 0 {
		select {
		case <-hedge.C:
			c.hedges.Add(1)
			launch(eps[1])
			inflight++
		case r := <-results:
			inflight--
			if r.err == nil {
				return r.v, nil // winner: deferred cancel stops the loser
			}
			if firstErr == nil || errors.Is(firstErr, context.Canceled) {
				firstErr = r.err
			}
			if isTerminal(r.err) {
				return nil, r.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}

// do is the resilience core: retry rounds over rotating endpoints with
// backoff between them, stopping early on a terminal answer or caller
// cancellation, wrapping the final failure in a ShardError.
func (c *Client) do(ctx context.Context, shard int, f op) (any, error) {
	if shard < 0 || shard >= c.NumShards() {
		return nil, &ShardError{Shard: shard, Err: fmt.Errorf("shard out of range [0,%d)", c.NumShards())}
	}
	var lastErr error
	for round := 0; round <= c.cfg.Retries; round++ {
		if round > 0 {
			c.retries.Add(1)
			if err := c.backoff(ctx, round); err != nil {
				break
			}
		}
		eps := c.pick(ctx, shard)
		if len(eps) == 0 {
			lastErr = fmt.Errorf("no endpoint available (circuit open)")
			continue
		}
		v, err := c.attempt(ctx, eps, f)
		if err == nil {
			return v, nil
		}
		lastErr = err
		if isTerminal(err) || ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, &ShardError{Shard: shard, Err: lastErr}
}

// get issues a GET of path on ep and decodes a JSON body into out; a
// non-zero version is the X-Summary-Version the reply must carry.
func get(ctx context.Context, ep *endpoint, path string, version uint64, out any) error {
	body, err := ep.conns.exchange(ctx, http.MethodGet, path, nil, maxJSONReply, version)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// errMessage extracts the "error" field of a serve JSON error body,
// falling back to the raw (truncated) body.
func errMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(bytes.TrimSpace(body))
}

// NeighborsLocal fetches the neighbor lists of shard-local vertex ids
// from the shard's binary batch endpoint in one request; a batch over
// serve.MaxBatchItems gets the shard's terminal 400. Results are in
// request order, in shard-local ids.
func (c *Client) NeighborsLocal(ctx context.Context, shard int, ids []int32) ([][]int32, error) {
	v, err := c.do(ctx, shard, func(ctx context.Context, ep *endpoint) (any, error) {
		body, err := ep.conns.exchange(ctx, http.MethodPost, "/batch/neighbors",
			serve.EncodeNeighborsRequest(ids), maxBatchReply, c.versions[shard])
		if err != nil {
			return nil, err
		}
		return serve.DecodeNeighborsResponse(body, len(ids))
	})
	if err != nil {
		return nil, err
	}
	return v.([][]int32), nil
}

// HasEdgeLocal asks shard for an intra-shard edge in local ids.
func (c *Client) HasEdgeLocal(ctx context.Context, shard int, u, v int32) (bool, error) {
	r, err := c.do(ctx, shard, func(ctx context.Context, ep *endpoint) (any, error) {
		var body struct {
			Exists bool `json:"exists"`
		}
		if err := get(ctx, ep, fmt.Sprintf("/hasedge?u=%d&v=%d", u, v), c.versions[shard], &body); err != nil {
			return nil, err
		}
		return body.Exists, nil
	})
	if err != nil {
		return false, err
	}
	return r.(bool), nil
}

// Healthy reports whether shard s has an endpoint whose breaker is
// closed.
func (c *Client) Healthy(shard int) bool {
	c.mu.RLock()
	eps := c.shards[shard]
	c.mu.RUnlock()
	for _, ep := range eps {
		if ep.brk.closed() {
			return true
		}
	}
	return false
}

// StartHealth launches the active health loop: every HealthInterval it
// probes each endpoint with a closed breaker, and each open one whose
// cooldown has passed, so a dead, swapped or restarted shard server is
// found without a live request paying for the discovery. No-op when
// HealthInterval is 0. Returns a stop function.
func (c *Client) StartHealth(ctx context.Context) (stop func()) {
	if c.cfg.HealthInterval <= 0 {
		return func() {}
	}
	hctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(c.cfg.HealthInterval)
		defer tick.Stop()
		for {
			select {
			case <-hctx.Done():
				return
			case <-tick.C:
				c.probeAll(hctx)
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// probeAll runs one round of the health loop, probing concurrently,
// and reports for each shard whether one of its probes passed.
func (c *Client) probeAll(ctx context.Context) []bool {
	var wg sync.WaitGroup
	c.mu.RLock()
	passed := make([]atomic.Bool, len(c.shards))
	for s, eps := range c.shards {
		for _, ep := range eps {
			if ep.brk.closed() || ep.brk.trial() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if c.probe(ctx, s, ep) {
						passed[s].Store(true)
					}
				}()
			}
		}
	}
	c.mu.RUnlock()
	wg.Wait()
	out := make([]bool, len(passed))
	for s := range passed {
		out[s] = passed[s].Load()
	}
	return out
}

// probe checks one endpoint and settles its breaker: /healthz must
// answer 200 with the shard's version. A pass closes the breaker; a
// wrong version opens it at once; any other failure counts like a
// failed request. A probe cut short by ctx records nothing.
func (c *Client) probe(ctx context.Context, shard int, ep *endpoint) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	err := get(pctx, ep, "/healthz", c.versions[shard], &struct{}{})
	switch {
	case err == nil:
		ep.brk.pass()
	case errors.Is(err, errIdentity):
		ep.brk.trip()
	case ctx.Err() == nil:
		ep.brk.failure()
	}
	return err == nil
}
