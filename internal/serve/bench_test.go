package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
)

// benchServer builds a flat (unsummarized) compiled model over a random
// graph: big enough that response encoding dominates, small enough to
// set up per benchmark run.
func benchServer(n, edges int) *Server {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	rng := rand.New(rand.NewSource(7))
	es := make([]model.Edge, 0, edges)
	for len(es) < edges {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a != b {
			es = append(es, model.Edge{A: a, B: b, Sign: 1})
		}
	}
	return New(model.New(n, parent, es).Compile())
}

// nullRW discards the response body; the benchmarks measure handler
// cost, not the recorder's.
type nullRW struct {
	h http.Header
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullRW) WriteHeader(int)             {}

// The Encode/EndToEnd/Binary benchmarks below exist for their allocs/op
// column (wall-clock serving numbers come from `go run ./bench`): same
// server, same vertices, response bytes pinned by TestFastJSONByteParity.

func BenchmarkServeNeighborsEncodePooled(b *testing.B) {
	s := benchServer(10000, 60000)
	w := &nullRW{h: make(http.Header)}
	vs := []int32{4321}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.answerNeighbors(ctx, w, vs, true)
	}
}

func benchBatchIDs(n, k int) []int32 {
	rng := rand.New(rand.NewSource(11))
	vs := make([]int32, k)
	for i := range vs {
		vs[i] = int32(rng.Intn(n))
	}
	return vs
}

func BenchmarkServeNeighborsBatch64EncodePooled(b *testing.B) {
	s := benchServer(10000, 60000)
	w := &nullRW{h: make(http.Header)}
	vs := benchBatchIDs(10000, 64)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.answerNeighbors(ctx, w, vs, false)
	}
}

func BenchmarkServeHasEdgeEncodePooled(b *testing.B) {
	s := benchServer(10000, 60000)
	w := &nullRW{h: make(http.Header)}
	view := s.view()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bp := acquireBuf()
		exists, _ := view.HasEdge(context.Background(), 17, 4321)
		buf := appendHasEdgeResult((*bp)[:0], 17, 4321, exists)
		setVersionHeader(w, view)
		writeRawJSON(w, http.StatusOK, buf)
		*bp = buf
		releaseBuf(bp)
	}
}

// End-to-end through the instrumented mux: includes routing, query
// parsing, and per-endpoint metrics — the figure a client actually pays.
func BenchmarkServeNeighborsGETEndToEnd(b *testing.B) {
	s := benchServer(10000, 60000)
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/neighbors?v=4321", nil)
	w := &nullRW{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

func BenchmarkServeBatchNeighborsBinary(b *testing.B) {
	s := benchServer(10000, 60000)
	h := s.Handler()
	body := EncodeNeighborsRequest(benchBatchIDs(10000, 64))
	w := &nullRW{h: make(http.Header)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/batch/neighbors", bytes.NewReader(body))
		h.ServeHTTP(w, req)
	}
}

// BenchmarkServePageRankHit is GET /pagerank?top=10 answered from the
// cache, on a flat model of n vertices with 8 edges each: what a hit
// costs beyond the computation, which runs once before the timer starts.
func BenchmarkServePageRankHit(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := benchServer(n, 8*n).Handler()
			req := httptest.NewRequest(http.MethodGet, "/pagerank?top=10", nil)
			w := &nullRW{h: make(http.Header)}
			h.ServeHTTP(w, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkServePageRankUnderChurn is the one wall-clock case kept here,
// because `go run ./bench` leaves /pagerank out of its serving mixes
// (ROADMAP item 4(b)): GET /pagerank?t=20 on a live view of the
// benchmark's served graph (n = 7 500) whose overlay holds ≈ 5 000
// corrections and whose version a 4-edge update bumps before every
// request, so every request is a cache miss. Only the request is timed.
// Run with -count 10 and read the median.
func BenchmarkServePageRankUnderChurn(b *testing.B) {
	g := graph.HierCommunity(graph.HierParams{
		Levels: 4, Branching: 5, LeafSize: 12, Density: []float64{0.00002, 0.0008, 0.01, 0.2, 0.9},
	}, 1)
	sum, _ := core.Summarize(g, core.Config{T: 10, Seed: 1})
	live := model.NewLive(sum.Compile())
	n := int32(g.NumNodes())
	rng := rand.New(rand.NewSource(5))
	absentPairs := func(k int) []model.EdgeUpdate {
		view := live.View()
		var ups []model.EdgeUpdate
		for len(ups) < k {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !view.HasEdge(u, v) {
				ups = append(ups, model.EdgeUpdate{U: u, V: v})
			}
		}
		return ups
	}
	edges := g.Edges()
	for live.View().Len() < 5000 {
		ups := absentPairs(250)
		for _, e := range edges[live.View().Len():][:250] {
			ups = append(ups, model.EdgeUpdate{U: e[0], V: e[1], Delete: true})
		}
		if _, err := live.ApplyUpdates(ups); err != nil {
			b.Fatal(err)
		}
	}
	s := NewLive(live)
	h := s.Handler()

	got, err := s.pageRank(s.view(), 0.85, 20)
	if err != nil {
		b.Fatal(err)
	}
	for v, want := range algos.PageRank(algos.Raw(live.View().Decode()), 0.85, 20) {
		if math.Abs(got[v]-want) > 1e-12 {
			b.Fatalf("rank[%d] = %v, raw graph gives %v", v, got[v], want)
		}
	}

	churn := absentPairs(4)
	req := httptest.NewRequest(http.MethodGet, "/pagerank?t=20", nil)
	w := &nullRW{h: make(http.Header)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range churn {
			churn[j].Delete = i%2 == 1 // in on even rounds, out again on odd ones
		}
		if applied, err := live.ApplyUpdates(churn); err != nil || applied != len(churn) {
			b.Fatalf("update applied %d of %d: %v", applied, len(churn), err)
		}
		b.StartTimer()
		h.ServeHTTP(w, req)
	}
}

// TestPooledEncodingAllocBudget is the regression tripwire behind the
// benchmarks: the pooled single-neighbors response path must stay
// allocation-free on the encoding side (the only allowed allocations
// are http.Header.Set's value slice and pool warmup).
func TestPooledEncodingAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; the reuse bound only holds without it")
	}
	s := benchServer(1000, 6000)
	w := &nullRW{h: make(http.Header)}
	vs := []int32{123}
	ctx := context.Background()
	s.answerNeighbors(ctx, w, vs, true) // warm pools
	avg := testing.AllocsPerRun(200, func() {
		s.answerNeighbors(ctx, w, vs, true)
	})
	// Legacy path measures ~8+ allocs/op here; the pooled path must do
	// strictly better than half of that, and in practice stays ≤2.
	if avg > 2 {
		t.Fatalf("pooled single-neighbors path allocates %.1f/op, budget 2", avg)
	}
}
