package fed_test

// End-to-end federation test: one coordinator and three shard servers
// booted from a split directory, each shard listening on its own real
// loopback TCP port (so a shard can be killed and restarted on the same
// address), exercising query parity
// against the raw graph and the compiled union, partial-failure semantics
// (503 naming the dead shard while live shards keep answering), the
// circuit breaker opening, recovery after restart, and shard servers
// of another build or shard swapped in on a shard's address.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// shardProc is one shard server on a real loopback listener, stoppable
// and restartable on the same port (Go listeners set SO_REUSEADDR).
type shardProc struct {
	handler http.Handler
	addr    string
	srv     *http.Server
}

func startShardProc(t *testing.T, handler http.Handler) *shardProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &shardProc{handler: handler, addr: ln.Addr().String()}
	p.serveOn(ln)
	t.Cleanup(func() { p.stop() })
	return p
}

func (p *shardProc) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: p.handler}
	p.srv = srv
	go srv.Serve(ln)
}

func (p *shardProc) url() string { return "http://" + p.addr }

// stop kills the server immediately, closing all connections — the
// "shard process died" failure mode.
func (p *shardProc) stop() {
	if p.srv != nil {
		p.srv.Close()
		p.srv = nil
	}
}

// restart brings the shard back on its original address.
func (p *shardProc) restart(t *testing.T) {
	t.Helper()
	var ln net.Listener
	var err error
	// The dying server's socket may linger briefly; retry the bind.
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", p.addr, err)
	}
	p.serveOn(ln)
}

// federation assembles the full topology: a summarized 3-shard build
// read back from its split directory, three shard servers on loopback,
// a resilient client, and a coordinator serving over httptest.
type federation struct {
	g      *graph.Graph
	sh     *slug.Sharded
	epoch  string
	procs  []*shardProc
	client *fed.Client
	co     *fed.Coordinator
	ts     *httptest.Server
}

func buildFederation(t *testing.T, cfg fed.Config) *federation {
	t.Helper()
	g := graph.ErdosRenyi(300, 1500, 7)
	built, err := slug.SummarizeSharded(context.Background(), g, 3, slug.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// Boot as the binaries do from a split directory: each shard server
	// mounts its file through Manifest.OpenShard (serve -shard-role),
	// the coordinator loads the directory through slug.OpenSplit
	// (fedserve -manifest).
	dir := t.TempDir()
	man, err := built.Split(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := slug.OpenSplit(filepath.Join(dir, slug.ManifestFilename))
	if err != nil {
		t.Fatal(err)
	}
	epoch := sh.Epoch()
	if epoch != built.Epoch() || epoch != man.Epoch {
		t.Fatalf("split directory epoch %s, build %s, manifest %s", epoch, built.Epoch(), man.Epoch)
	}

	procs := make([]*shardProc, man.NumShards())
	urls := make([][]string, man.NumShards())
	for s := range man.NumShards() {
		art, err := man.OpenShard(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := art.Queryable()
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewShard(cs, serve.ShardInfo{
			Shard:     s,
			Shards:    man.NumShards(),
			Epoch:     man.Epoch,
			Nodes:     cs.NumNodes(),
			Algorithm: man.Algorithm,
		})
		procs[s] = startShardProc(t, srv.Handler())
		urls[s] = []string{procs[s].url()}
	}

	client, err := fed.NewClient(&fed.Peers{Epoch: epoch, Shards: urls}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return &federation{g: g, sh: sh, epoch: epoch, procs: procs, client: client, co: co, ts: ts}
}

func getJSON(t *testing.T, url string, out any) (*http.Response, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

func TestFederationParityAndFailure(t *testing.T) {
	f := buildFederation(t, fed.Config{
		Timeout:         2 * time.Second,
		Retries:         1,
		RetriesSet:      true,
		BackoffBase:     2 * time.Millisecond,
		BackoffCap:      10 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		HealthInterval:  20 * time.Millisecond,
	})
	stop := f.client.StartHealth(context.Background())
	defer stop()

	cs, err := f.sh.Queryable()
	if err != nil {
		t.Fatal(err)
	}
	wantVersion := strconv.FormatUint(slug.EpochVersion(f.sh.Epoch()), 10)
	n := f.g.NumNodes()

	// --- Neighbor parity, batched across all shards at once ---
	for off := 0; off < n; off += 64 {
		end := min(off+64, n)
		ids := make([]string, 0, end-off)
		for v := off; v < end; v++ {
			ids = append(ids, strconv.Itoa(v))
		}
		var results []serve.NeighborsResult
		resp, err := getJSON(t, f.ts.URL+"/neighbors?v="+strings.Join(ids, ","), &results)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch [%d,%d): status %d", off, end, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Summary-Version"); got != wantVersion {
			t.Fatalf("X-Summary-Version = %q, want %q", got, wantVersion)
		}
		if len(results) != end-off {
			t.Fatalf("batch [%d,%d): %d results", off, end, len(results))
		}
		for i, res := range results {
			v := int32(off + i)
			if fmt.Sprint(res.Neighbors) != fmt.Sprint(f.g.Neighbors(v)) {
				t.Fatalf("neighbors(%d) = %v, want %v", v, res.Neighbors, f.g.Neighbors(v))
			}
		}
	}

	// --- HasEdge parity: every edge plus sampled non-edges ---
	checked := 0
	f.g.ForEachEdge(func(u, v int32) {
		if checked >= 100 {
			return
		}
		checked++
		var body struct {
			Exists bool `json:"exists"`
		}
		resp, err := getJSON(t, fmt.Sprintf("%s/hasedge?u=%d&v=%d", f.ts.URL, u, v), &body)
		if err != nil || resp.StatusCode != http.StatusOK || !body.Exists {
			t.Fatalf("hasedge(%d,%d): err=%v status=%v exists=%v", u, v, err, resp.StatusCode, body.Exists)
		}
	})
	for u := int32(0); u < 40; u++ {
		v := (u + 151) % int32(n)
		if u == v {
			continue
		}
		var body struct {
			Exists bool `json:"exists"`
		}
		if _, err := getJSON(t, fmt.Sprintf("%s/hasedge?u=%d&v=%d", f.ts.URL, u, v), &body); err != nil {
			t.Fatal(err)
		}
		if body.Exists != f.g.HasEdge(u, v) {
			t.Fatalf("hasedge(%d,%d) = %v, graph says %v", u, v, body.Exists, f.g.HasEdge(u, v))
		}
	}

	// --- Kill shard 1: queries on it fail 503 naming the shard, other
	// shards keep answering, the breaker opens ---
	f.procs[1].stop()

	var deadV, liveV int32 = -1, -1
	for v := int32(0); v < int32(n); v++ {
		gid1 := f.sh.GlobalID[1]
		owned := false
		for _, g := range gid1 {
			if g == v {
				owned = true
				break
			}
		}
		if owned && deadV < 0 {
			deadV = v
		}
		if !owned && liveV < 0 {
			liveV = v
		}
		if deadV >= 0 && liveV >= 0 {
			break
		}
	}

	var fail struct {
		Error string `json:"error"`
		Shard *int   `json:"shard"`
	}
	resp, err := getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, deadV), &fail)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query on dead shard: status %d, want 503", resp.StatusCode)
	}
	if fail.Shard == nil || *fail.Shard != 1 {
		t.Fatalf("503 body %+v does not identify shard 1", fail)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	var live serve.NeighborsResult
	resp, err = getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, liveV), &live)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query on live shard during outage: err=%v status=%v", err, resp.StatusCode)
	}
	if fmt.Sprint(live.Neighbors) != fmt.Sprint(f.g.Neighbors(liveV)) {
		t.Fatalf("live-shard answer diverged during outage")
	}

	// --- PageRank with shard 1 down: the coordinator ranks on the
	// compiled union it loaded, bit-identical to the in-process engine,
	// and needs no shard ---
	src := algos.OnCompiled(cs)
	want := algos.PageRank(src, 0.85, 20)
	src.Release()
	var pr struct {
		Top []serve.RankedVertex `json:"top"`
	}
	resp, err = getJSON(t, fmt.Sprintf("%s/pagerank?d=0.85&t=20&top=%d", f.ts.URL, n), &pr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pagerank: status %d", resp.StatusCode)
	}
	if len(pr.Top) != n {
		t.Fatalf("pagerank returned %d ranks, want %d", len(pr.Top), n)
	}
	for _, rv := range pr.Top {
		if rv.Rank != want[rv.V] {
			t.Fatalf("pagerank(%d) = %v, in-process engine says %v", rv.V, rv.Rank, want[rv.V])
		}
	}

	// Breaker opens (request failures plus health probes feed it).
	waitFor(t, 5*time.Second, "breaker open", func() bool {
		for _, ep := range f.client.Snapshot().Shards {
			if ep.Shard == 1 && ep.Breaker == "open" {
				return true
			}
		}
		return false
	})

	// /readyz reports the down shard.
	var ready struct {
		Status string `json:"status"`
		Down   []int  `json:"down_shards"`
	}
	resp, err = getJSON(t, f.ts.URL+"/readyz", &ready)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || len(ready.Down) != 1 || ready.Down[0] != 1 {
		t.Fatalf("readyz during outage = %d %+v, want 503 down=[1]", resp.StatusCode, ready)
	}

	// --- Restart the shard on the same port: the health loop probes it
	// back in and queries recover ---
	f.procs[1].restart(t)
	waitFor(t, 5*time.Second, "shard recovery", func() bool {
		resp, err := http.Get(f.ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	var back serve.NeighborsResult
	resp, err = getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, deadV), &back)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query after restart: err=%v status=%v", err, resp.StatusCode)
	}
	if fmt.Sprint(back.Neighbors) != fmt.Sprint(f.g.Neighbors(deadV)) {
		t.Fatalf("post-recovery answer diverged")
	}
}

// impostor is a shard server of another identity for shard s's
// address: an edgeless summary of the same vertex count (so every local
// id is in range and every answer it gives is wrong) whose replies
// carry the version of the given epoch and shard index.
func (f *federation) impostor(t *testing.T, s int, epoch string, index int) http.Handler {
	t.Helper()
	n := len(f.sh.GlobalID[s])
	built, err := slug.SummarizeSharded(context.Background(), graph.FromEdges(n, nil), 1, slug.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := built.Shards[0].Queryable()
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewShard(cs, serve.ShardInfo{
		Shard: index, Shards: f.sh.NumShards(), Epoch: epoch, Nodes: n,
	}).Handler()
}

// swap replaces the server on p's address by one serving h.
func (p *shardProc) swap(t *testing.T, h http.Handler) {
	t.Helper()
	p.stop()
	p.handler = h
	p.restart(t)
}

// TestFederationRefusesWrongIdentity swaps shard 1's server for one of
// another build, and for one of the right build that is another shard.
// Under a running health loop the probe's version check opens the
// endpoint's breaker; without one, the first reply's does, and the
// inline readmission probe keeps it open. Either way no live answer
// closes it again: no query owned by shard 1 answers 200 and /readyz
// names the shard. Putting the right server back readmits it.
func TestFederationRefusesWrongIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epoch  string // "" is the federation's own
		index  int
		health time.Duration
	}{
		{"another build", "another build's epoch", 1, 20 * time.Millisecond},
		{"another shard", "", 2, 20 * time.Millisecond},
		{"another build, no health loop", "another build's epoch", 1, 0},
		{"another shard, no health loop", "", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFederation(t, fed.Config{
				Retries:         1,
				RetriesSet:      true,
				BackoffBase:     2 * time.Millisecond,
				BackoffCap:      10 * time.Millisecond,
				BreakerFailures: 2,
				BreakerCooldown: 50 * time.Millisecond,
				HealthInterval:  tc.health,
			})
			stop := f.client.StartHealth(context.Background())
			defer stop()
			epoch := tc.epoch
			if epoch == "" {
				epoch = f.epoch
			}
			right := f.procs[1].handler
			f.procs[1].swap(t, f.impostor(t, 1, epoch, tc.index))
			if tc.health > 0 {
				waitFor(t, 5*time.Second, "breaker open", func() bool {
					return f.client.Snapshot().Shards[1].Breaker == "open"
				})
			}

			// Neighbor lists of up to 100 shard-1 vertices, and edge
			// queries between two of them (answered by the shard, not
			// the boundary).
			owned := f.sh.GlobalID[1]
			for i, v := range owned[:min(100, len(owned))] {
				urls := []string{fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, v)}
				if i > 0 {
					urls = append(urls, fmt.Sprintf("%s/hasedge?u=%d&v=%d", f.ts.URL, owned[0], v))
				}
				for _, u := range urls {
					resp, err := http.Get(u)
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						t.Fatalf("%s answered 200 from a server of another identity", u)
					}
				}
			}
			var ready struct {
				Down []int `json:"down_shards"`
			}
			resp, err := getJSON(t, f.ts.URL+"/readyz", &ready)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || fmt.Sprint(ready.Down) != "[1]" {
				t.Fatalf("readyz with an impostor = %d down=%v, want 503 down=[1]", resp.StatusCode, ready.Down)
			}

			f.procs[1].swap(t, right)
			waitFor(t, 5*time.Second, "readmission", func() bool {
				resp, err := http.Get(fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, owned[0]))
				if err != nil {
					return false
				}
				resp.Body.Close()
				return resp.StatusCode == http.StatusOK
			})
			for _, v := range owned {
				var res serve.NeighborsResult
				resp, err := getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, v), &res)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("neighbors(%d) after readmission: err=%v status=%v", v, err, resp.StatusCode)
				}
				if fmt.Sprint(res.Neighbors) != fmt.Sprint(f.g.Neighbors(v)) {
					t.Fatalf("neighbors(%d) after readmission = %v, want %v", v, res.Neighbors, f.g.Neighbors(v))
				}
			}
		})
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestVerifyRejectsMismatchedEpoch stands up shard 1's server with
// another build's epoch, then with the right epoch but shard 0's
// index, and checks the coordinator refuses to federate either. It
// also refuses a client pinned to another epoch, or to none.
func TestVerifyRejectsMismatchedEpoch(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, 13)
	sh, err := slug.SummarizeSharded(context.Background(), g, 2, slug.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		epoch string // shard 1's; "" is the build's own
		index int    // shard 1's
		down  bool   // shard 1's server is closed before Verify
	}{
		{"right servers", "", 1, false},
		{"another epoch", "not-the-same-build", 1, false},
		{"another shard", "", 0, false},
		{"shard down", "", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			urls := make([][]string, 2)
			for s := 0; s < 2; s++ {
				cs, err := sh.Shards[s].Queryable()
				if err != nil {
					t.Fatal(err)
				}
				epoch, index := sh.Epoch(), s
				if s == 1 {
					index = tc.index
					if tc.epoch != "" {
						epoch = tc.epoch
					}
				}
				srv := serve.NewShard(cs, serve.ShardInfo{
					Shard: index, Shards: 2, Epoch: epoch, Nodes: len(sh.GlobalID[s]),
				})
				ts := httptest.NewServer(srv.Handler())
				t.Cleanup(ts.Close)
				urls[s] = []string{ts.URL}
				if s == 1 && tc.down {
					ts.Close()
				}
			}
			cfg := fed.Config{Retries: 0, RetriesSet: true}
			for _, pin := range []string{"", "another build's epoch"} {
				client, err := fed.NewClient(&fed.Peers{Epoch: pin, Shards: urls}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fed.NewCoordinator(sh, client); err == nil {
					t.Fatalf("coordinator accepted a client pinned to epoch %q", pin)
				}
			}
			client, err := fed.NewClient(&fed.Peers{Epoch: sh.Epoch(), Shards: urls}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			co, err := fed.NewCoordinator(sh, client)
			if err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if err := co.Verify(cancelled); !errors.Is(err, context.Canceled) {
				t.Fatalf("Verify under a cancelled context = %v, want context.Canceled", err)
			}
			err = co.Verify(context.Background())
			if tc.name == "right servers" {
				if err != nil {
					t.Fatalf("Verify refused the build's own servers: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "shard 1 ") {
				t.Fatalf("Verify accepted shard 1's server (%s): %v", tc.name, err)
			}
			if tc.down {
				return // a refused connection counts toward the threshold; it does not open the breaker
			}
			if st := client.Snapshot().Shards; st[0].Breaker != "closed" || st[1].Breaker != "open" {
				t.Fatalf("breakers after Verify = %+v, want shard 0 closed, shard 1 open", st)
			}
		})
	}
}
