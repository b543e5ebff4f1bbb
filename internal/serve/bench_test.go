package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

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

// The benchmarks below exist for their allocs/op column (wall-clock
// serving numbers come from `go run ./bench`): same server, same
// vertices, response bytes pinned by TestFastJSONByteParity.

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
