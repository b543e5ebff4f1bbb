package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// encodeReference is the pre-optimization encoder: exactly what
// writeJSON did before the hot path switched to pooled append-style
// encoding — json.NewEncoder(w).Encode(v), trailing newline included.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return b.Bytes()
}

// TestFastJSONByteParity pins the hand-rolled hot-path encoders
// byte-identical to the encoding/json output they replaced: same field
// order, same (absence of) whitespace, same trailing newline, map keys
// in sorted order for /hasedge. A client diffing response bytes across
// the optimization must see nothing.
func TestFastJSONByteParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		v := int32(rng.Intn(1 << 28))
		deg := rng.Intn(20)
		nbrs := make([]int32, deg)
		for i := range nbrs {
			nbrs[i] = int32(rng.Intn(1 << 28))
		}
		want := encodeReference(t, NeighborsResult{V: v, Degree: deg, Neighbors: append([]int32{}, nbrs...)})
		got := append(appendNeighborsResult(nil, v, nbrs), '\n')
		if !bytes.Equal(got, want) {
			t.Fatalf("neighbors single diverged:\n got %q\nwant %q", got, want)
		}

		u2, v2 := int32(rng.Intn(1000)), int32(rng.Intn(1000))
		exists := rng.Intn(2) == 0
		want = encodeReference(t, map[string]any{"u": u2, "v": v2, "exists": exists})
		got = appendHasEdgeResult(nil, u2, v2, exists)
		if !bytes.Equal(got, want) {
			t.Fatalf("hasedge diverged:\n got %q\nwant %q", got, want)
		}
	}

	// Batch form: array of results, including an empty neighbor list
	// (must render as [], not null).
	results := []NeighborsResult{
		{V: 4, Degree: 2, Neighbors: []int32{2, 3}},
		{V: 6, Degree: 0, Neighbors: []int32{}},
	}
	want := encodeReference(t, results)
	got := []byte{'['}
	for i, r := range results {
		if i > 0 {
			got = append(got, ',')
		}
		got = appendNeighborsResult(got, r.V, r.Neighbors)
	}
	got = append(got, ']', '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("neighbors batch diverged:\n got %q\nwant %q", got, want)
	}
}

// TestEndpointByteParity drives the live HTTP surface and compares the
// full response bodies to the reference encoding, end to end.
func TestEndpointByteParity(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	body := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Single: vertices with populated and empty neighborhoods.
	for _, v := range []int32{0, 4, 6} {
		nbrs := []int32{}
		testServer().view().NeighborsBatch(context.Background(), []int32{v}, func(_ int32, ns []int32) {
			nbrs = append(nbrs, ns...)
		})
		want := encodeReference(t, NeighborsResult{V: v, Degree: len(nbrs), Neighbors: nbrs})
		if got := body(fmt.Sprintf("/neighbors?v=%d", v)); !bytes.Equal(got, want) {
			t.Fatalf("GET /neighbors?v=%d:\n got %q\nwant %q", v, got, want)
		}
	}

	// Batch GET and batch POST return the array form.
	wantBatch := encodeReference(t, []NeighborsResult{
		{V: 4, Degree: 2, Neighbors: []int32{2, 3}},
		{V: 6, Degree: 1, Neighbors: []int32{5}},
	})
	if got := body("/neighbors?v=4,6"); !bytes.Equal(got, wantBatch) {
		t.Fatalf("GET batch:\n got %q\nwant %q", got, wantBatch)
	}
	resp, err := http.Post(ts.URL+"/neighbors", "application/json", strings.NewReader(`{"v":[4,6]}`))
	if err != nil {
		t.Fatal(err)
	}
	gotPost, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPost, wantBatch) {
		t.Fatalf("POST batch:\n got %q\nwant %q", gotPost, wantBatch)
	}

	// HasEdge, both outcomes.
	for _, tc := range []struct {
		u, v   int32
		exists bool
	}{{2, 4, true}, {2, 5, false}} {
		want := encodeReference(t, map[string]any{"u": tc.u, "v": tc.v, "exists": tc.exists})
		if got := body(fmt.Sprintf("/hasedge?u=%d&v=%d", tc.u, tc.v)); !bytes.Equal(got, want) {
			t.Fatalf("GET /hasedge?u=%d&v=%d:\n got %q\nwant %q", tc.u, tc.v, got, want)
		}
	}
}

// TestBinaryBatchParityWithJSON pins the binary POST /batch/neighbors
// wire — open on every server, not only shard roles — to the JSON batch
// endpoint: same ids, same neighbor lists, same order.
func TestBinaryBatchParityWithJSON(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	ids := []int32{0, 4, 6, 0}
	resp, err := http.Post(ts.URL+"/batch/neighbors", "application/octet-stream",
		bytes.NewReader(EncodeNeighborsRequest(ids)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch on a plain (non-shard) server: status %d, body %q", resp.StatusCode, raw)
	}
	bin, err := DecodeNeighborsResponse(raw, len(ids))
	if err != nil {
		t.Fatal(err)
	}

	var viaJSON []NeighborsResult
	post(t, ts, "/neighbors", `{"v":[0,4,6,0]}`, http.StatusOK, &viaJSON)
	if len(viaJSON) != len(bin) {
		t.Fatalf("binary %d lists, JSON %d", len(bin), len(viaJSON))
	}
	for i := range bin {
		if fmt.Sprint(bin[i]) != fmt.Sprint(viaJSON[i].Neighbors) {
			t.Fatalf("id %d: binary %v, JSON %v", ids[i], bin[i], viaJSON[i].Neighbors)
		}
	}
}

// TestBatchRepliesCarryContentLength checks that finished reply buffers
// go out with a Content-Length, not chunked: both 64-id batch forms are
// well over the 2 KB net/http would buffer before it starts chunking,
// and a 1-id reply under it gets the header from net/http itself.
func TestBatchRepliesCarryContentLength(t *testing.T) {
	ts := httptest.NewServer(benchServer(1000, 6000).Handler())
	defer ts.Close()

	ids := benchBatchIDs(1000, 64)
	vs := make([]string, len(ids))
	for i, v := range ids {
		vs[i] = fmt.Sprint(v)
	}
	for _, form := range []struct {
		name, path, contentType string
		body                    []byte
		big                     bool
	}{
		{"binary", "/batch/neighbors", "application/octet-stream", EncodeNeighborsRequest(ids), true},
		{"JSON", "/neighbors", "application/json", []byte(`{"v":[` + strings.Join(vs, ",") + `]}`), true},
		{"1-id JSON", "/neighbors", "application/json", []byte(`{"v":[` + vs[0] + `]}`), false},
	} {
		resp, err := http.Post(ts.URL+form.path, form.contentType, bytes.NewReader(form.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || (len(raw) > 2048) != form.big {
			t.Fatalf("%s batch: status %d, %d bytes", form.name, resp.StatusCode, len(raw))
		}
		if resp.ContentLength != int64(len(raw)) || resp.TransferEncoding != nil {
			t.Fatalf("%s batch of %d bytes: ContentLength %d, Transfer-Encoding %v",
				form.name, len(raw), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestWriteJSONEncodeFailure checks the error-swallowing fix: a value
// that cannot be marshalled must produce a clean 500 JSON error — not a
// 200 header followed by a half-written body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, rec.Body.String())
	}
	if e["error"] == "" {
		t.Fatalf("error body = %v, want populated \"error\"", e)
	}
}

// TestPageRankSingleflight checks miss coalescing: N concurrent
// requests for the same (d, t) on the same snapshot version must cost
// exactly one computation, and distinct parameters must not be
// coalesced together.
// fullSortRanked is the /pagerank order computed the way the handler
// once did: every vertex sorted, rank descending, ties by ascending id.
func fullSortRanked(rank []float64) []RankedVertex {
	ranked := make([]RankedVertex, len(rank))
	for v, rr := range rank {
		ranked[v] = RankedVertex{V: int32(v), Rank: rr}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Rank != ranked[j].Rank {
			return ranked[i].Rank > ranked[j].Rank
		}
		return ranked[i].V < ranked[j].V
	})
	return ranked
}

// A /pagerank answer selects its top k in one pass: its bytes must be
// those of the full sort, on vectors from all ties to all distinct, for
// top = 1, top = n, top > n and sizes between — and on the real vector.
func TestPageRankTopMatchesFullSort(t *testing.T) {
	const n = 300
	s := benchServer(n, 1200)
	h := s.Handler()
	computed, err := s.pageRank(s.view(), 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for iters, levels := range []int{0, 1, 2, 5, 40, n} { // distinct values; 0: the real vector
		rank := computed
		if levels > 0 {
			rank = make([]float64, n)
			for v := range rank {
				rank[v] = float64(rng.Intn(levels)) / 7
			}
		}
		iters++ // a fresh cache key per vector
		s.prCompute = func(View, float64, int) ([]float64, error) { return rank, nil }
		ref := fullSortRanked(rank)
		for _, top := range []int{1, 2, 3, 10, n - 1, n, n + 1, 5 * n} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/pagerank?t=%d&top=%d", iters, top), nil))
			want := encodeReference(t, map[string]any{"damping": 0.85, "iterations": iters, "top": ref[:min(top, n)]})
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%d rank levels, top=%d: status %d, body\n%s\nwant\n%s", levels, top, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
}

func TestPageRankSingleflight(t *testing.T) {
	s := testServer()
	var computes atomic.Int32
	gate := make(chan struct{})
	s.prCompute = func(view View, d float64, t int) ([]float64, error) {
		computes.Add(1)
		<-gate // hold every leader mid-computation until all followers queue up
		r := make([]float64, view.NumNodes())
		r[0] = d * float64(t)
		return r, nil
	}

	const callers = 32
	var wg sync.WaitGroup
	results := make([][]float64, callers)
	started := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			r, err := s.pageRank(s.view(), 0.85, 20)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests cost %d computations, want 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d got a different vector: coalescing failed", i)
		}
	}

	// A different (d, t) is its own flight (now cached separately).
	if _, err := s.pageRank(s.view(), 0.5, 10); err != nil {
		t.Fatal(err)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("distinct params coalesced: %d computations, want 2", got)
	}
	// Cache hit: no new computation.
	if _, err := s.pageRank(s.view(), 0.85, 20); err != nil {
		t.Fatal(err)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("cache hit recomputed: %d computations, want 2", got)
	}
}

// TestStatsEndpointCounters checks the serving.endpoints section: each
// route reports its request count, error count, and latency histogram.
func TestStatsEndpointCounters(t *testing.T) {
	ts := httptest.NewServer(testServer().Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		get(t, ts, "/neighbors?v=0", http.StatusOK, nil)
	}
	get(t, ts, "/neighbors?v=99", http.StatusBadRequest, nil) // counted as an error
	get(t, ts, "/hasedge?u=0&v=1", http.StatusOK, nil)

	var stats struct {
		Serving struct {
			Endpoints map[string]struct {
				Count   uint64   `json:"count"`
				Errors  uint64   `json:"errors"`
				P50us   float64  `json:"p50_us"`
				P99us   float64  `json:"p99_us"`
				Buckets []uint64 `json:"buckets_log2_us"`
			} `json:"endpoints"`
		} `json:"serving"`
	}
	get(t, ts, "/stats", http.StatusOK, &stats)

	nb := stats.Serving.Endpoints["GET /neighbors"]
	if nb.Count != 6 || nb.Errors != 1 {
		t.Fatalf("GET /neighbors counters = %+v, want count 6, errors 1", nb)
	}
	var bucketed uint64
	for _, c := range nb.Buckets {
		bucketed += c
	}
	if bucketed != nb.Count {
		t.Fatalf("latency buckets sum to %d, count is %d", bucketed, nb.Count)
	}
	if nb.P99us < nb.P50us || nb.P50us <= 0 {
		t.Fatalf("quantiles inconsistent: p50=%g p99=%g", nb.P50us, nb.P99us)
	}
	if he := stats.Serving.Endpoints["GET /hasedge"]; he.Count != 1 || he.Errors != 0 {
		t.Fatalf("GET /hasedge counters = %+v, want count 1", he)
	}
	// Routes never hit still appear with zero counters (loadgen relies
	// on the keys existing to sanity-check its own accounting).
	if pg, ok := stats.Serving.Endpoints["GET /pagerank"]; !ok || pg.Count != 0 {
		t.Fatalf("GET /pagerank = %+v, want present with count 0", pg)
	}
}

// TestPageRankFlightSurvivesPanic: a leader that panics mid-computation
// costs its own request one 500, but the flight must still be retired —
// a concurrent follower gets an error instead of blocking forever on
// the dead flight, and the next request recomputes and succeeds.
func TestPageRankFlightSurvivesPanic(t *testing.T) {
	s := testServer()
	var computes atomic.Int32
	var failing atomic.Bool
	failing.Store(true)
	entered := make(chan struct{}, 2) // leader, plus a follower that arrived late and leads its own flight
	gate := make(chan struct{})
	s.prCompute = func(view View, d float64, t int) ([]float64, error) {
		computes.Add(1)
		if failing.Load() {
			entered <- struct{}{}
			<-gate
			panic("pagerank bug")
		}
		return make([]float64, view.NumNodes()), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, 2)
	request := func() {
		resp, err := http.Get(ts.URL + "/pagerank")
		if err != nil {
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go request() // leader
	<-entered
	go request() // follower: same (d, t, version), so it waits on the leader's flight
	// Nothing observable marks the follower as parked; give it time to
	// get there. If it arrives after the release it leads a panicking
	// flight of its own and still answers 5xx, so the assertions hold on
	// either schedule.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	for i := 0; i < 2; i++ {
		select {
		case code := <-codes:
			if code < 500 {
				t.Fatalf("request on a panicked flight answered %d, want 5xx", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request still blocked on a flight whose leader panicked")
		}
	}
	if s.panics.Load() == 0 {
		t.Fatal("leader panic was not counted")
	}

	failing.Store(false)
	before := computes.Load()
	get(t, ts, "/pagerank", http.StatusOK, nil)
	if computes.Load() != before+1 {
		t.Fatalf("request after the failed flight did not recompute (%d → %d computations)", before, computes.Load())
	}
}
