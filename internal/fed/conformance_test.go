package fed_test

// One request pipeline, many backends: the same graph mounted as a
// static summary, a live one, the sharded build's compiled union and a
// coordinator over three shard servers must answer every shared route
// with the same status and the same body bytes — and those bytes must
// be the raw graph's answer, over every vertex and every edge.
// /pagerank is the one route held to the raw graph per backend instead
// (1e-12): each hierarchy sums its power iteration in its own order. The
// coordinator-only tests below pin what the coordinator inherits from
// serve's pipeline (per-route metrics, load shedding, panic accounting)
// — none of which its own former copy of the HTTP surface had.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/algos"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// maxBody mirrors serve's request body cap.
const maxBody = 8 << 20

func TestBackendConformance(t *testing.T) {
	f := buildFederation(t, fed.Config{Retries: 1, RetriesSet: true})
	art, err := slug.Get("slugger").Summarize(context.Background(), f.g, slug.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := art.Queryable()
	if err != nil {
		t.Fatal(err)
	}
	union, err := f.sh.Queryable()
	if err != nil {
		t.Fatal(err)
	}
	mount := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	backends := []struct {
		name, url string
		mutable   bool
	}{
		{"static", mount(serve.New(cs).Handler()), false},
		{"live", mount(serve.NewLive(model.NewLive(cs)).Handler()), true},
		{"sharded", mount(serve.New(union).WithAlgorithm(f.sh.Algorithm()).Handler()), false},
		{"coordinator", f.ts.URL, false},
	}

	// One intra-shard edge, one cross-shard edge: the coordinator answers
	// the first over the network and the second from its boundary CSR.
	shardOf := make(map[int32]int)
	for s, ids := range f.sh.GlobalID {
		for _, v := range ids {
			shardOf[v] = s
		}
	}
	intra, cross := "", ""
	f.g.ForEachEdge(func(u, v int32) {
		q := fmt.Sprintf("/hasedge?u=%d&v=%d", u, v)
		if shardOf[u] == shardOf[v] && intra == "" {
			intra = q
		}
		if shardOf[u] != shardOf[v] && cross == "" {
			cross = q
		}
	})
	if intra == "" || cross == "" {
		t.Fatal("test graph has no intra-shard or no cross-shard edge")
	}

	ids := []int32{0, 17, 63, 149, 299}
	jsonIDs := func(vs []int32) []byte {
		b, _ := json.Marshal(map[string][]int32{"v": vs})
		return b
	}
	// Ground truth: what the raw graph says a 200 body must hold.
	sameList := func(v int32, got []int32) error {
		if fmt.Sprint(got) != fmt.Sprint(f.g.Neighbors(v)) {
			return fmt.Errorf("neighbors(%d) = %v, graph has %v", v, got, f.g.Neighbors(v))
		}
		return nil
	}
	sameResults := func(vs []int32, res []serve.NeighborsResult) error {
		if len(res) != len(vs) {
			return fmt.Errorf("%d results for %d ids", len(res), len(vs))
		}
		for i, r := range res {
			if r.V != vs[i] || r.Degree != len(r.Neighbors) {
				return fmt.Errorf("result %d is vertex %d degree %d with %d neighbors, want vertex %d", i, r.V, r.Degree, len(r.Neighbors), vs[i])
			}
			if err := sameList(r.V, r.Neighbors); err != nil {
				return err
			}
		}
		return nil
	}
	single := func(v int32) func([]byte) error {
		return func(body []byte) error {
			var r serve.NeighborsResult
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			return sameResults([]int32{v}, []serve.NeighborsResult{r})
		}
	}
	batch := func(body []byte) error {
		var res []serve.NeighborsResult
		if err := json.Unmarshal(body, &res); err != nil {
			return err
		}
		return sameResults(ids, res)
	}
	binary := func(body []byte) error {
		lists, err := serve.DecodeNeighborsResponse(body, len(ids))
		if err != nil {
			return err
		}
		for i, l := range lists {
			if err := sameList(ids[i], l); err != nil {
				return err
			}
		}
		return nil
	}
	exists := func(want bool) func([]byte) error {
		return func(body []byte) error {
			var r struct {
				Exists bool `json:"exists"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Exists != want {
				return fmt.Errorf("exists = %v, graph says %v", r.Exists, want)
			}
			return nil
		}
	}
	// top holds one backend's /pagerank body to PageRank on the raw
	// graph: every returned rank within 1e-12 of raw's, ranks
	// non-increasing, and no omitted vertex above the k-th by more.
	rawRank := algos.PageRank(algos.Raw(f.g), 0.85, 20)
	top := func(k int) func([]byte) error {
		return func(body []byte) error {
			const tol = 1e-12
			var r struct {
				Top []serve.RankedVertex `json:"top"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if len(r.Top) != k {
				return fmt.Errorf("%d ranked vertices, want %d", len(r.Top), k)
			}
			returned := make(map[int32]bool, k)
			for i, rv := range r.Top {
				if math.Abs(rv.Rank-rawRank[rv.V]) > tol {
					return fmt.Errorf("rank(%d) = %v, raw graph says %v", rv.V, rv.Rank, rawRank[rv.V])
				}
				if i > 0 && rv.Rank > r.Top[i-1].Rank {
					return fmt.Errorf("ranks increase at position %d", i)
				}
				returned[rv.V] = true
			}
			for v, rr := range rawRank {
				if !returned[int32(v)] && rr > r.Top[k-1].Rank+tol {
					return fmt.Errorf("vertex %d (raw rank %v) omitted, yet above the k-th (%v)", v, rr, r.Top[k-1].Rank)
				}
			}
			return nil
		}
	}

	tooMany := make([]int32, serve.MaxBatchItems+1)
	hugeJSON := append([]byte(`{"v":[`), bytes.Repeat([]byte("1,"), maxBody/2+512)...)
	hugeBinary := make([]byte, maxBody+1024)

	type row struct {
		name, method, path string
		body               []byte
		want               int
		readOnly           bool               // row applies to backends without the update capability only
		truth              func([]byte) error // what the raw graph says about the body; nil = byte parity only
		perBackend         bool               // bodies need not be byte-equal: truth judges each backend's
	}
	rows := []row{
		{"healthz", "GET", "/healthz", nil, 200, false, nil, false},
		{"neighbors single", "GET", "/neighbors?v=17", nil, 200, false, single(17), false},
		{"neighbors GET batch", "GET", "/neighbors?v=0,17,63,149,299", nil, 200, false, batch, false},
		{"neighbors POST batch", "POST", "/neighbors", jsonIDs(ids), 200, false, batch, false},
		{"neighbors binary batch", "POST", "/batch/neighbors", serve.EncodeNeighborsRequest(ids), 200, false, binary, false},
		{"hasedge intra-shard", "GET", intra, nil, 200, false, exists(true), false},
		{"hasedge cross-shard", "GET", cross, nil, 200, false, exists(true), false},
		{"hasedge self", "GET", "/hasedge?u=5&v=5", nil, 200, false, exists(false), false},
		{"pagerank", "GET", "/pagerank?d=0.85&t=20&top=300", nil, 200, false, top(300), true},
		{"pagerank top 5", "GET", "/pagerank?top=5", nil, 200, false, top(5), true},
		{"out-of-range vertex", "GET", "/neighbors?v=99999", nil, 400, false, nil, false},
		{"out-of-range binary", "POST", "/batch/neighbors", serve.EncodeNeighborsRequest([]int32{99999}), 400, false, nil, false},
		{"missing parameter", "GET", "/hasedge?u=1", nil, 400, false, nil, false},
		{"bad pagerank damping", "GET", "/pagerank?d=NaN", nil, 400, false, nil, false},
		{"oversize JSON batch", "POST", "/neighbors", jsonIDs(tooMany), 400, false, nil, false},
		{"oversize binary batch", "POST", "/batch/neighbors", serve.EncodeNeighborsRequest(tooMany), 400, false, nil, false},
		{"oversize JSON body", "POST", "/neighbors", hugeJSON, 413, false, nil, false},
		{"oversize binary body", "POST", "/batch/neighbors", hugeBinary, 413, false, nil, false},
		{"update on read-only", "POST", "/update", []byte(`{"u":1,"v":2}`), 405, true, nil, false},
	}
	// The whole graph through the point routes: every vertex's neighbor
	// list and every edge, on every backend.
	for v := int32(0); v < int32(f.g.NumNodes()); v++ {
		rows = append(rows, row{fmt.Sprintf("neighbors(%d)", v), "GET", fmt.Sprintf("/neighbors?v=%d", v), nil, 200, false, single(v), false})
	}
	f.g.ForEachEdge(func(u, v int32) {
		rows = append(rows, row{fmt.Sprintf("hasedge(%d,%d)", u, v), "GET", fmt.Sprintf("/hasedge?u=%d&v=%d", u, v), nil, 200, false, exists(true), false})
	})

	for _, tc := range rows {
		var ref []byte
		refName := ""
		for _, b := range backends {
			if tc.readOnly && b.mutable {
				continue
			}
			req, err := http.NewRequest(tc.method, b.url+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, b.name, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s on %s: reading body: %v", tc.name, b.name, err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("%s on %s: status %d, want %d (body %q)", tc.name, b.name, resp.StatusCode, tc.want, got)
			}
			if tc.want == http.StatusMethodNotAllowed {
				if _, ok := resp.Header["Allow"]; !ok {
					t.Fatalf("%s on %s: 405 without an Allow header", tc.name, b.name)
				}
			}
			if tc.perBackend {
				if err := tc.truth(got); err != nil {
					t.Fatalf("%s on %s: %v", tc.name, b.name, err)
				}
				continue
			}
			if ref == nil {
				ref, refName = got, b.name
			} else if !bytes.Equal(got, ref) {
				t.Fatalf("%s: %s and %s disagree:\n%s: %q\n%s: %q", tc.name, b.name, refName, b.name, got, refName, ref)
			}
		}
		// Every backend sent these bytes, so one look at them covers all.
		if tc.truth != nil && !tc.perBackend {
			if err := tc.truth(ref); err != nil {
				t.Fatalf("%s: all backends agree on a wrong answer: %v (body %q)", tc.name, err, ref)
			}
		}
	}

	// /stats is per backend by design; the compiled union's must describe
	// the merged model: every vertex, the algorithm tag, and one
	// superedge per shard superedge plus one per boundary edge.
	var stats struct {
		Algorithm  string `json:"algorithm"`
		Nodes      int    `json:"nodes"`
		Superedges int    `json:"superedges"`
	}
	if _, err := getJSON(t, backends[2].url+"/stats", &stats); err != nil {
		t.Fatal(err)
	}
	want := len(f.sh.Boundary)
	for _, art := range f.sh.Shards {
		cs, err := art.Queryable()
		if err != nil {
			t.Fatal(err)
		}
		want += cs.NumSuperedges()
	}
	if stats.Algorithm != f.sh.Algorithm() || stats.Nodes != f.g.NumNodes() || stats.Superedges != want {
		t.Fatalf("sharded /stats = %+v, want %d nodes and %d superedges", stats, f.g.NumNodes(), want)
	}
}

// TestCoordinatorInheritsRouteMetrics: /stats keeps the federation's
// own keys and gains serve's per-route counters.
func TestCoordinatorInheritsRouteMetrics(t *testing.T) {
	f := buildFederation(t, fed.Config{Retries: 1, RetriesSet: true})
	count := func() uint64 {
		var stats struct {
			Federated bool   `json:"federated"`
			Shards    int    `json:"shards"`
			Epoch     string `json:"epoch"`
			Serving   struct {
				Endpoints map[string]struct {
					Count uint64 `json:"count"`
				} `json:"endpoints"`
			} `json:"serving"`
		}
		if _, err := getJSON(t, f.ts.URL+"/stats", &stats); err != nil {
			t.Fatal(err)
		}
		if !stats.Federated || stats.Shards != 3 || stats.Epoch != f.epoch {
			t.Fatalf("/stats lost the federation keys: %+v", stats)
		}
		return stats.Serving.Endpoints["GET /neighbors"].Count
	}
	before := count()
	for v := 0; v < 3; v++ {
		if resp, err := getJSON(t, fmt.Sprintf("%s/neighbors?v=%d", f.ts.URL, v), nil); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("neighbors(%d): err=%v", v, err)
		}
	}
	if after := count(); after != before+3 {
		t.Fatalf(`serving.endpoints["GET /neighbors"].count went %d → %d over 3 requests`, before, after)
	}
}

// stubFederation is a coordinator over two stub shard servers (see
// neighborsHandler) sharing one failure hook, each stamping its shard's
// version.
func stubFederation(t *testing.T, fail func(w http.ResponseWriter) bool) *fed.Coordinator {
	t.Helper()
	sh, err := slug.SummarizeSharded(context.Background(), graph.ErdosRenyi(40, 120, 5), 2, slug.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	urls := make([][]string, sh.NumShards())
	for s := range urls {
		stub, version := neighborsHandler(fail), fmt.Sprint(serve.ShardVersion(sh.Epoch(), s))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Summary-Version", version)
			stub.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[s] = []string{ts.URL}
	}
	client, err := fed.NewClient(&fed.Peers{Epoch: sh.Epoch(), Shards: urls}, fed.Config{Retries: 0, RetriesSet: true, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestCoordinatorShedsUnderAdmission: with the only slot held by a
// request parked on a slow shard, the next one is shed with 429 and
// Retry-After while the probes keep answering.
func TestCoordinatorShedsUnderAdmission(t *testing.T) {
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	co := stubFederation(t, func(http.ResponseWriter) bool {
		entered <- struct{}{}
		<-gate
		return false
	})
	ts := httptest.NewServer(serve.NewServer(co).WithAdmission(1, 0, 10*time.Millisecond).Handler())
	defer ts.Close()

	held := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/neighbors?v=0")
		if err != nil {
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-entered // the slot is taken and its request is waiting on the shard

	resp, err := http.Get(ts.URL + "/hasedge?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated coordinator answered %d (Retry-After %q), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp, err := getJSON(t, ts.URL+"/healthz", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during overload: err=%v", err)
	}
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("admitted request answered %d once the shard replied, want 200", code)
	}
}

// panicBackend is a coordinator whose neighbor path panics.
type panicBackend struct {
	*fed.Coordinator
	value any
}

func (b panicBackend) View() serve.View { return b }
func (b panicBackend) NeighborsBatch(context.Context, []int32, func(int32, []int32)) error {
	panic(b.value)
}

// TestCoordinatorPanicAccounting: a panic below the pipeline costs one
// 500 and is counted in serving.panics; http.ErrAbortHandler keeps its
// net/http meaning and is re-raised.
func TestCoordinatorPanicAccounting(t *testing.T) {
	co := stubFederation(t, nil)
	ts := httptest.NewServer(serve.NewServer(panicBackend{co, "routing bug"}).Handler())
	defer ts.Close()

	resp, err := getJSON(t, ts.URL+"/neighbors?v=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking backend answered %d, want 500", resp.StatusCode)
	}
	var stats struct {
		Serving struct {
			Panics uint64 `json:"panics"`
		} `json:"serving"`
	}
	if _, err := getJSON(t, ts.URL+"/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.Panics != 1 {
		t.Fatalf("serving.panics = %d after one contained panic, want 1", stats.Serving.Panics)
	}

	h := serve.NewServer(panicBackend{co, http.ErrAbortHandler}).Handler()
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed instead of re-raised")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/neighbors?v=0", nil))
}
