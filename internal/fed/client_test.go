package fed_test

// Chaos tests for the resilient client: injected 5xx storms, terminal
// 4xx answers, slow responses vs. the per-attempt timeout, connection
// resets, hedging (fires, wins, cancels the loser), circuit breaker
// lifecycle (opens, fast-fails, a readmission probe closes it), and peer
// reload semantics; then the transport's own rules: stale pooled
// connections, chunked replies, the reply-size cap, and
// "Connection: close".

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fed"
	"repro/internal/serve"
)

// neighborsHandler answers /batch/neighbors with a fixed single-vertex
// answer, plus /healthz and /hasedge, behind an injectable failure
// hook.
func neighborsHandler(fail func(w http.ResponseWriter) bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/hasedge", func(w http.ResponseWriter, r *http.Request) {
		if fail != nil && fail(w) {
			return
		}
		w.Write([]byte(`{"u":0,"v":1,"exists":true}`))
	})
	mux.HandleFunc("/batch/neighbors", func(w http.ResponseWriter, r *http.Request) {
		if fail != nil && fail(w) {
			return
		}
		buf := serve.AppendNeighborsResponseHeader(nil, 1)
		buf = serve.AppendNeighborsResponseList(buf, []int32{1, 2, 3})
		w.Write(buf)
	})
	return mux
}

func singleShardClient(t *testing.T, url string, cfg fed.Config) *fed.Client {
	t.Helper()
	c, err := fed.NewClient(&fed.Peers{Shards: [][]string{{url}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetryExhaustionBounded(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(neighborsHandler(func(w http.ResponseWriter) bool {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		return true
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{
		Retries: 2, RetriesSet: true,
		BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond,
		BreakerFailures: 100, // keep the breaker out of this test
	})
	start := time.Now()
	_, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	var se *fed.ShardError
	if !asShardError(err, &se) || se.Shard != 0 {
		t.Fatalf("error %v does not identify the shard", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	st := c.Snapshot()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("snapshot attempts=%d retries=%d, want 3/2", st.Attempts, st.Retries)
	}
	// 2 backoffs ≤ (1+0.5) + (2+1) ms plus overhead: well under a second.
	if elapsed > 2*time.Second {
		t.Fatalf("retry budget took %v", elapsed)
	}
}

func TestTerminalErrorNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(neighborsHandler(func(w http.ResponseWriter) bool {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"vertex out of range"}`))
		return true
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{Retries: 5})
	_, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	if err == nil {
		t.Fatal("4xx reported success")
	}
	if !strings.Contains(err.Error(), "vertex out of range") {
		t.Fatalf("server error message lost: %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("terminal 4xx retried: server saw %d attempts", got)
	}
}

func TestAttemptTimeoutAndRecovery(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	ts := httptest.NewServer(neighborsHandler(func(w http.ResponseWriter) bool {
		if slow.Load() {
			time.Sleep(300 * time.Millisecond)
			w.WriteHeader(http.StatusInternalServerError)
			return true
		}
		return false
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{
		Timeout: 30 * time.Millisecond,
		Retries: 1, RetriesSet: true,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		BreakerFailures: 100,
	})
	start := time.Now()
	_, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	if err == nil {
		t.Fatal("timed-out attempts reported success")
	}
	// 2 attempts × 30ms timeout + backoff: nowhere near the 300ms the
	// server stalls for per attempt.
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("timeout not enforced: %v elapsed", elapsed)
	}
	slow.Store(false)
	if _, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil {
		t.Fatalf("recovery after slowness failed: %v", err)
	}
}

func TestConnectionResetRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 1 {
			// Hijack and slam the connection: the client sees a reset
			// mid-response, a retryable transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		buf := serve.AppendNeighborsResponseHeader(nil, 1)
		buf = serve.AppendNeighborsResponseList(buf, []int32{7})
		w.Write(buf)
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{
		Retries: 2, RetriesSet: true,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
	})
	lists, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	if err != nil {
		t.Fatalf("reset not retried: %v", err)
	}
	if fmt.Sprint(lists[0]) != "[7]" {
		t.Fatalf("wrong answer after retry: %v", lists)
	}
	if hits.Load() < 2 {
		t.Fatal("server only saw one attempt")
	}
}

func TestHedgingFiresAndCancelsLoser(t *testing.T) {
	// The slow replica stalls until its request context is cancelled —
	// which is exactly what should happen when the hedged fast replica
	// wins the race.
	loserCancelled := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body (as real shard handlers do) so the server's
		// background read blocks on the connection and notices the
		// client closing it — that close IS the cancellation signal.
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(5 * time.Second):
			t.Error("slow replica was never cancelled")
		case <-r.Context().Done():
			select {
			case loserCancelled <- struct{}{}:
			default:
			}
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(neighborsHandler(nil))
	defer fast.Close()

	c, err := fed.NewClient(
		&fed.Peers{Shards: [][]string{{slow.URL, fast.URL}}},
		fed.Config{
			Timeout: 3 * time.Second,
			Retries: 0, RetriesSet: true,
			HedgeDelay:      20 * time.Millisecond,
			BreakerFailures: 100,
		})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	lists, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if fmt.Sprint(lists[0]) != "[1 2 3]" {
		t.Fatalf("hedged answer = %v", lists)
	}
	// The fast replica answered; the slow one would have taken 5s.
	if elapsed > time.Second {
		t.Fatalf("hedge did not rescue the request: %v elapsed", elapsed)
	}
	if st := c.Snapshot(); st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
	select {
	case <-loserCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing attempt was not cancelled")
	}
}

func asShardError(err error, target **fed.ShardError) bool {
	for err != nil {
		if se, ok := err.(*fed.ShardError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestBreakerLifecycle(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits, probes atomic.Int64
	data := neighborsHandler(func(w http.ResponseWriter) bool {
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return true
		}
		return false
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			data.ServeHTTP(w, r)
			return
		}
		probes.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{
		Retries: 0, RetriesSet: true,
		BackoffBase:     time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 60 * time.Millisecond,
	})
	ctx := context.Background()

	// Two failures open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := c.NeighborsLocal(ctx, 0, []int32{0}); err == nil {
			t.Fatal("failing server reported success")
		}
	}
	if st := c.Snapshot().Shards[0].Breaker; st != "open" {
		t.Fatalf("breaker after %d failures = %s, want open", 2, st)
	}

	// While open, requests fast-fail without touching the server.
	before := hits.Load()
	if _, err := c.NeighborsLocal(ctx, 0, []int32{0}); err == nil {
		t.Fatal("open breaker admitted a request")
	} else if !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("fast-fail error = %v", err)
	}
	if hits.Load() != before || probes.Load() != 0 {
		t.Fatal("open breaker let a request or probe through before its cooldown")
	}

	// After the cooldown the trial is one /healthz probe and no data
	// request; with the server still failing the circuit stays open...
	time.Sleep(70 * time.Millisecond)
	if _, err := c.NeighborsLocal(ctx, 0, []int32{0}); err == nil {
		t.Fatal("failing trial reported success")
	}
	if hits.Load() != before || probes.Load() != 1 {
		t.Fatalf("trial made %d data requests and %d probes, want 0 and 1", hits.Load()-before, probes.Load())
	}
	if st := c.Snapshot().Shards[0].Breaker; st != "open" {
		t.Fatalf("breaker after failed probe = %s, want open", st)
	}

	// ...and once the server heals, the next trial's probe closes the
	// circuit and the request goes through.
	failing.Store(false)
	time.Sleep(70 * time.Millisecond)
	if _, err := c.NeighborsLocal(ctx, 0, []int32{0}); err != nil {
		t.Fatalf("request after healed probe failed: %v", err)
	}
	if hits.Load() != before+1 || probes.Load() != 2 {
		t.Fatalf("healed trial made %d data requests and %d probes, want 1 and 2", hits.Load()-before, probes.Load())
	}
	if st := c.Snapshot().Shards[0].Breaker; st != "closed" {
		t.Fatalf("breaker after recovery = %s, want closed", st)
	}
}

func TestPeersReloadPreservesBreakers(t *testing.T) {
	ts := httptest.NewServer(neighborsHandler(func(w http.ResponseWriter) bool {
		w.WriteHeader(http.StatusInternalServerError)
		return true
	}))
	defer ts.Close()

	c := singleShardClient(t, ts.URL, fed.Config{
		Retries: 0, RetriesSet: true,
		BreakerFailures: 1, BreakerCooldown: time.Hour,
	})
	c.NeighborsLocal(context.Background(), 0, []int32{0})
	if st := c.Snapshot().Shards[0].Breaker; st != "open" {
		t.Fatalf("breaker = %s, want open", st)
	}

	// Reload keeping the URL: breaker state survives.
	if err := c.Reload(&fed.Peers{Shards: [][]string{{ts.URL}}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot().Shards[0].Breaker; st != "open" {
		t.Fatalf("breaker after same-URL reload = %s, want open", st)
	}

	// Reload with a fresh URL: the new endpoint starts closed.
	if err := c.Reload(&fed.Peers{Shards: [][]string{{"http://127.0.0.1:1"}}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot().Shards[0].Breaker; st != "closed" {
		t.Fatalf("breaker after new-URL reload = %s, want closed", st)
	}

	// Shard-count changes are refused.
	err := c.Reload(&fed.Peers{Shards: [][]string{{"http://a:1"}, {"http://b:1"}}})
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard-count change accepted: %v", err)
	}
}

func TestLoadPeersValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := fed.LoadPeers(write("ok.json", `{"shards":[["http://a:1"],["http://b:2","http://c:3"]]}`)); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"garbage.json":  `not json`,
		"empty.json":    `{"shards":[]}`,
		"noeps.json":    `{"shards":[["http://a:1"],[]]}`,
		"relative.json": `{"shards":[["not-a-url"]]}`,
		"scheme.json":   `{"shards":[["ftp://a:1"]]}`,
		"https.json":    `{"shards":[["https://a:1"]]}`, // no shard server speaks TLS
	} {
		if _, err := fed.LoadPeers(write(name, content)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := fed.LoadPeers(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	// Epoch pinning: a client pinned by its peer set refuses a reloaded
	// peers file from another build, not one that names no epoch.
	c, err := fed.NewClient(&fed.Peers{Epoch: "aaa", Shards: [][]string{{"http://a:1"}}}, fed.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(&fed.Peers{Epoch: "bbb", Shards: [][]string{{"http://a:1"}}}); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("epoch mismatch accepted: %v", err)
	}
	if err := c.Reload(&fed.Peers{Shards: [][]string{{"http://b:1"}}}); err != nil {
		t.Fatalf("reload without an epoch: %v", err)
	}
}

// TestWrongVersionOpensBreaker: one reply without the shard's version
// opens the endpoint's breaker at once, whatever its status and
// however high the failure threshold, and a probe that finds it keeps
// the breaker open.
func TestWrongVersionOpensBreaker(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version string // X-Summary-Version of every reply ("" = none)
		status  int
	}{
		{"another shard", fmt.Sprint(serve.ShardVersion("e", 1)), http.StatusOK},
		{"another build", fmt.Sprint(serve.ShardVersion("f", 0)), http.StatusOK},
		{"unversioned", "", http.StatusOK},
		{"another shard, 4xx", fmt.Sprint(serve.ShardVersion("e", 1)), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := neighborsHandler(nil)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.version != "" {
					w.Header().Set("X-Summary-Version", tc.version)
				}
				if tc.status != http.StatusOK {
					w.WriteHeader(tc.status)
					return
				}
				data.ServeHTTP(w, r)
			}))
			defer ts.Close()
			c, err := fed.NewClient(&fed.Peers{Epoch: "e", Shards: [][]string{{ts.URL}}}, fed.Config{
				Retries: 0, RetriesSet: true,
				BreakerFailures: 100,
				BreakerCooldown: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.NeighborsLocal(context.Background(), 0, []int32{0})
			if err == nil || !strings.Contains(err.Error(), "another build or shard") {
				t.Fatalf("reply of version %q accepted: %v", tc.version, err)
			}
			if st := c.Snapshot().Shards[0].Breaker; st != "open" {
				t.Fatalf("breaker after one reply of another identity = %s, want open", st)
			}
			time.Sleep(5 * time.Millisecond)
			if _, err := c.HasEdgeLocal(context.Background(), 0, 0, 1); err == nil {
				t.Fatal("readmission probe passed a server of another identity")
			}
			if st := c.Snapshot().Shards[0].Breaker; st != "open" {
				t.Fatalf("breaker after the readmission probe = %s, want open", st)
			}
		})
	}
}

// rawServer answers every request on every connection with reply,
// verbatim, and never closes a connection itself. It reports how many
// connections it accepted.
func rawServer(t *testing.T, reply string) (url string, accepted *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted = new(atomic.Int64)
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func() {
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body)
					if _, err := io.WriteString(c, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), accepted
}

// oneList is the binary batch reply for one vertex with neighbors 1 2 3.
func oneList() []byte {
	return serve.AppendNeighborsResponseList(serve.AppendNeighborsResponseHeader(nil, 1), []int32{1, 2, 3})
}

func TestStalePooledConnectionRedialled(t *testing.T) {
	ts := httptest.NewServer(neighborsHandler(nil))
	defer ts.Close()
	c := singleShardClient(t, ts.URL, fed.Config{BackoffBase: time.Millisecond})
	for i := 0; i < 2; i++ {
		if i == 1 {
			// The server drops the idle keep-alive connection the
			// first call left in the pool.
			ts.CloseClientConnections()
		}
		if lists, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil || fmt.Sprint(lists) != "[[1 2 3]]" {
			t.Fatalf("call %d: %v, %v", i, lists, err)
		}
	}
	if st := c.Snapshot(); st.Retries != 0 || st.Shards[0].Breaker != "closed" {
		t.Fatalf("stale connection cost retries=%d, breaker %s", st.Retries, st.Shards[0].Breaker)
	}
}

func TestChunkedReplyAccepted(t *testing.T) {
	body := oneList()
	url, accepted := rawServer(t, fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n",
		5, body[:5], len(body)-5, body[5:]))
	c := singleShardClient(t, url, fed.Config{Retries: 0, RetriesSet: true})
	for i := 0; i < 2; i++ {
		if lists, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil || fmt.Sprint(lists) != "[[1 2 3]]" {
			t.Fatalf("call %d: %v, %v", i, lists, err)
		}
	}
	// The trailer was consumed: the connection carried both exchanges.
	if n := accepted.Load(); n != 1 {
		t.Fatalf("two chunked exchanges took %d connections, want 1", n)
	}
}

func TestOversizedReplyRejected(t *testing.T) {
	url, _ := rawServer(t, "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n")
	c := singleShardClient(t, url, fed.Config{Retries: 0, RetriesSet: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.NeighborsLocal(context.Background(), 0, []int32{0})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("a 1 TiB reply: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 1 TiB reply allocated %d bytes", grew)
	}
}

func TestConnectionCloseNeverPooled(t *testing.T) {
	body := oneList()
	// The server says "Connection: close" but leaves the connection
	// open: only the client's own rule keeps it out of the pool.
	url, accepted := rawServer(t, fmt.Sprintf(
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	c := singleShardClient(t, url, fed.Config{Retries: 0, RetriesSet: true})
	for i := 0; i < 2; i++ {
		if _, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("two exchanges after Connection: close took %d connections, want 2", n)
	}
}

func TestConcurrentCallsSharePooledConnections(t *testing.T) {
	var dialed atomic.Int64
	ts := httptest.NewUnstartedServer(neighborsHandler(nil))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dialed.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := singleShardClient(t, ts.URL, fed.Config{})
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if lists, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil || fmt.Sprint(lists) != "[[1 2 3]]" {
					t.Errorf("concurrent call: %v, %v", lists, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every connection went back to the pool: no more were ever open
	// than there were callers.
	if n := dialed.Load(); n > callers {
		t.Fatalf("%d callers dialled %d connections", callers, n)
	}
}

func TestReloadClosesDroppedEndpointConnections(t *testing.T) {
	closed := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(neighborsHandler(nil))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	ts.Start()
	defer ts.Close()
	c := singleShardClient(t, ts.URL, fed.Config{})
	if _, err := c.NeighborsLocal(context.Background(), 0, []int32{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(&fed.Peers{Shards: [][]string{{"http://127.0.0.1:1"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("the idle connection to the dropped endpoint stayed open")
	}
}
