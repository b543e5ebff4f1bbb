package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/model"
)

// testServer serves the Fig. 2-like summary of the model package:
// vertices 0..6, supernodes 7={2,3}, 8={0,1,7}, with neighbors
// 0: {1,2,3,5}, 4: {2,3}, 6: {5}.
func testServer() *Server {
	parent := []int32{8, 8, 7, 7, -1, -1, -1, 8, -1}
	edges := []model.Edge{
		{A: 8, B: 8, Sign: 1},
		{A: 8, B: 5, Sign: 1},
		{A: 5, B: 7, Sign: -1},
		{A: 4, B: 7, Sign: 1},
		{A: 5, B: 6, Sign: 1},
	}
	return New(model.New(7, parent, edges).Compile())
}

func get(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	var health map[string]string
	get(t, ts, "/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var stats map[string]any
	get(t, ts, "/stats", http.StatusOK, &stats)
	if stats["nodes"] != 7.0 || stats["supernodes"] != 9.0 || stats["superedges"] != 5.0 {
		t.Fatalf("stats = %v", stats)
	}

	var nbrs NeighborsResult
	get(t, ts, "/neighbors?v=0", http.StatusOK, &nbrs)
	if nbrs.V != 0 || nbrs.Degree != 4 || fmt.Sprint(nbrs.Neighbors) != "[1 2 3 5]" {
		t.Fatalf("neighbors(0) = %+v", nbrs)
	}

	var batch []NeighborsResult
	get(t, ts, "/neighbors?v=4,6", http.StatusOK, &batch)
	if len(batch) != 2 || fmt.Sprint(batch[0].Neighbors) != "[2 3]" || fmt.Sprint(batch[1].Neighbors) != "[5]" {
		t.Fatalf("batch neighbors = %+v", batch)
	}

	var edge map[string]any
	get(t, ts, "/hasedge?u=2&v=4", http.StatusOK, &edge)
	if edge["exists"] != true {
		t.Fatalf("hasedge(2,4) = %v", edge)
	}
	get(t, ts, "/hasedge?u=2&v=5", http.StatusOK, &edge)
	if edge["exists"] != false {
		t.Fatalf("hasedge(2,5) = %v", edge)
	}

	var pr struct {
		Damping    float64        `json:"damping"`
		Iterations int            `json:"iterations"`
		Top        []RankedVertex `json:"top"`
	}
	get(t, ts, "/pagerank?top=3", http.StatusOK, &pr)
	if pr.Damping != 0.85 || pr.Iterations != 20 || len(pr.Top) != 3 {
		t.Fatalf("pagerank = %+v", pr)
	}
	if pr.Top[0].Rank < pr.Top[1].Rank || pr.Top[1].Rank < pr.Top[2].Rank {
		t.Fatalf("pagerank top not sorted: %+v", pr.Top)
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()
	for _, path := range []string{
		"/neighbors",
		"/neighbors?v=notanumber",
		"/neighbors?v=99",
		"/neighbors?v=-1",
		"/neighbors?v=1,99",
		"/hasedge?u=1",
		"/hasedge?u=1&v=99",
		"/pagerank?d=1.5",
		"/pagerank?d=NaN",
		"/pagerank?t=0",
		"/pagerank?top=-2",
	} {
		get(t, ts, path, http.StatusBadRequest, nil)
	}
}

// liveTestServer wraps the same Fig. 2-like summary in a mutable
// server whose compaction rebuilds a trivial flat base.
func liveTestServer(threshold int) (*Server, *model.Live) {
	parent := []int32{8, 8, 7, 7, -1, -1, -1, 8, -1}
	edges := []model.Edge{
		{A: 8, B: 8, Sign: 1},
		{A: 8, B: 5, Sign: 1},
		{A: 5, B: 7, Sign: -1},
		{A: 4, B: 7, Sign: 1},
		{A: 5, B: 6, Sign: 1},
	}
	l := model.NewLive(model.New(7, parent, edges).Compile())
	l.SetRebuild(func(g *graph.Graph) (*model.CompiledSummary, error) {
		n := g.NumNodes()
		p := make([]int32, n)
		for i := range p {
			p[i] = -1
		}
		var es []model.Edge
		g.ForEachEdge(func(u, v int32) { es = append(es, model.Edge{A: u, B: v, Sign: 1}) })
		return model.New(n, p, es).Compile(), nil
	})
	l.SetCompactionThreshold(threshold)
	return NewLive(l), l
}

func post(t *testing.T, ts *httptest.Server, path, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding body: %v", path, err)
		}
	}
}

func TestUpdateEndpoint(t *testing.T) {
	srv, _ := liveTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Base graph: 0-1 present, 4-6 absent.
	var edge map[string]any
	get(t, ts, "/hasedge?u=4&v=6", http.StatusOK, &edge)
	if edge["exists"] != false {
		t.Fatal("edge 4-6 unexpectedly present")
	}

	var res struct {
		Received int `json:"received"`
		Applied  int `json:"applied"`
		Overlay  struct {
			Insertions int    `json:"insertions"`
			Deletions  int    `json:"deletions"`
			Version    uint64 `json:"version"`
		} `json:"overlay"`
	}
	post(t, ts, "/update", `{"u":4,"v":6}`, http.StatusOK, &res)
	if res.Applied != 1 || res.Overlay.Insertions != 1 {
		t.Fatalf("single insert: %+v", res)
	}
	post(t, ts, "/update", `{"updates":[{"u":0,"v":1,"delete":true},{"u":4,"v":6}]}`, http.StatusOK, &res)
	if res.Received != 2 || res.Applied != 1 || res.Overlay.Deletions != 1 {
		t.Fatalf("batch: %+v", res)
	}

	// Queries see the overlay immediately.
	get(t, ts, "/hasedge?u=4&v=6", http.StatusOK, &edge)
	if edge["exists"] != true {
		t.Fatal("inserted edge not visible")
	}
	get(t, ts, "/hasedge?u=0&v=1", http.StatusOK, &edge)
	if edge["exists"] != false {
		t.Fatal("deleted edge still visible")
	}
	var nbrs NeighborsResult
	get(t, ts, "/neighbors?v=6", http.StatusOK, &nbrs)
	if fmt.Sprint(nbrs.Neighbors) != "[4 5]" {
		t.Fatalf("neighbors(6) = %v, want [4 5]", nbrs.Neighbors)
	}

	// Stats report the overlay counters.
	var stats struct {
		Mutable bool `json:"mutable"`
		Overlay struct {
			Insertions int `json:"insertions"`
			Deletions  int `json:"deletions"`
		} `json:"overlay"`
	}
	get(t, ts, "/stats", http.StatusOK, &stats)
	if !stats.Mutable || stats.Overlay.Insertions != 1 || stats.Overlay.Deletions != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	// Bad updates are rejected whole.
	post(t, ts, "/update", `{"u":0,"v":99}`, http.StatusBadRequest, nil)
	post(t, ts, "/update", `{"u":3,"v":3}`, http.StatusBadRequest, nil)
	post(t, ts, "/update", `{}`, http.StatusBadRequest, nil)
	post(t, ts, "/update", `{"u":1}`, http.StatusBadRequest, nil)
	post(t, ts, "/update", `not json`, http.StatusBadRequest, nil)
}

// TestUpdateReadOnlyServer checks that POST /update on an immutable
// server answers 405 Method Not Allowed (the route exists but nothing
// is allowed on it) with a JSON error body — not a fallthrough 404 and
// not a silent drop.
func TestUpdateReadOnlyServer(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(`{"u":0,"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	// RFC 9110: every 405 carries Allow; the empty list means no method
	// is currently allowed on the resource.
	if _, ok := resp.Header["Allow"]; !ok {
		t.Fatal("405 response missing the Allow header")
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if body["error"] == "" {
		t.Fatalf("error body = %v, want a populated \"error\" field", body)
	}
}

func TestUpdateTriggersPageRankRecompute(t *testing.T) {
	srv, _ := liveTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var pr struct {
		Top []RankedVertex `json:"top"`
	}
	get(t, ts, "/pagerank?top=7", http.StatusOK, &pr)
	before := make(map[int32]float64)
	for _, r := range pr.Top {
		before[r.V] = r.Rank
	}
	// Isolate vertex 6 (its only edge is 5-6): its rank must drop to the
	// teleport floor, proving the cache was invalidated by the update.
	post(t, ts, "/update", `{"u":5,"v":6,"delete":true}`, http.StatusOK, nil)
	get(t, ts, "/pagerank?top=7", http.StatusOK, &pr)
	after := make(map[int32]float64)
	for _, r := range pr.Top {
		after[r.V] = r.Rank
	}
	if after[6] >= before[6] {
		t.Fatalf("rank of isolated vertex did not drop: %g -> %g", before[6], after[6])
	}
}

func TestNeighborsPostBatch(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()
	var batch []NeighborsResult
	post(t, ts, "/neighbors", `{"v":[4,6]}`, http.StatusOK, &batch)
	if len(batch) != 2 || fmt.Sprint(batch[0].Neighbors) != "[2 3]" || fmt.Sprint(batch[1].Neighbors) != "[5]" {
		t.Fatalf("POST batch neighbors = %+v", batch)
	}
	post(t, ts, "/neighbors", `{"v":[]}`, http.StatusBadRequest, nil)
	post(t, ts, "/neighbors", `{"v":[99]}`, http.StatusBadRequest, nil)
}

// TestOversizedBodyRejected checks the MaxBytesReader guard: a body
// over the limit must yield 413, not an attempt to buffer it all.
func TestOversizedBodyRejected(t *testing.T) {
	srv, _ := liveTestServer(0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	huge := bytes.Repeat([]byte("1,"), maxRequestBody/2+1024)
	body := `{"updates":[` + string(huge)
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestRunGracefulShutdown starts Run on a real listener, issues a
// request, cancels the context, and checks Run returns cleanly (nil,
// not a forced-close error).
func TestRunGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- testServer().Run(ctx, addr) }()

	// Wait for the listener to come up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after graceful shutdown", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestServeConcurrentUpdatesAndQueries hammers a mutable server with
// mixed readers and writers; with a tiny compaction threshold the base
// swap happens repeatedly under load. Under -race this validates the
// whole live serving path.
func TestServeConcurrentUpdatesAndQueries(t *testing.T) {
	srv, live := liveTestServer(4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := (g + i) % 7
				resp, err := http.Get(fmt.Sprintf("%s/neighbors?v=%d", ts.URL, v))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET /neighbors?v=%d: status %d", v, resp.StatusCode)
					resp.Body.Close()
					return
				}
				var nbrs NeighborsResult
				err = json.NewDecoder(resp.Body).Decode(&nbrs)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				u := (w*3 + i) % 7
				v := (u + 1 + i%5) % 7
				if u == v {
					continue
				}
				body := fmt.Sprintf(`{"u":%d,"v":%d,"delete":%v}`, u, v, i%2 == 0)
				resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("POST /update %s: status %d", body, resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	live.Quiesce()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := live.CompactionErr(); err != nil {
		t.Fatal(err)
	}
}

// TestServeConcurrentRequests exercises the full HTTP path from many
// clients at once; under -race it checks the pooled query contexts and
// the PageRank cache against data races.
func TestServeConcurrentRequests(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				v := (g + i) % 7
				var nbrs NeighborsResult
				resp, err := http.Get(fmt.Sprintf("%s/neighbors?v=%d", ts.URL, v))
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&nbrs)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if int(nbrs.V) != v || len(nbrs.Neighbors) != nbrs.Degree {
					errs <- fmt.Errorf("inconsistent response for v=%d: %+v", v, nbrs)
					return
				}
				if i%10 == 0 {
					if resp, err := http.Get(ts.URL + "/pagerank?top=2"); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
