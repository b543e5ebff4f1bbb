package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// identityCompiled wraps a graph in a trivial compiled summary (every
// vertex its own root, one p-edge per graph edge) — exact by
// construction, so endpoint bugs can't hide behind summarization bugs.
func identityCompiled(g *graph.Graph) *model.CompiledSummary {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	var edges []model.Edge
	g.ForEachEdge(func(u, v int32) { edges = append(edges, model.Edge{A: u, B: v, Sign: 1}) })
	return model.New(n, parent, edges).Compile()
}

// shardServer is shard 1 of 3; the Version it is handed is not the
// one NewShard stamps.
func shardServer(t *testing.T) (*Server, *graph.Graph, ShardInfo) {
	t.Helper()
	g := graph.ErdosRenyi(80, 300, 11)
	info := ShardInfo{Shard: 1, Shards: 3, Epoch: "deadbeef", Nodes: g.NumNodes(), Version: 7, Algorithm: "slugger"}
	srv := NewShard(identityCompiled(g), info)
	info.Version = ShardVersion(info.Epoch, info.Shard)
	return srv, g, info
}

// TestShardVersionOnEveryReply: a shard server stamps its own version
// on every reply — probes, queries, errors — and reports its identity
// under /stats "shard_role"; there is no /shardinfo route.
func TestShardVersionOnEveryReply(t *testing.T) {
	srv, _, info := shardServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want := fmt.Sprint(info.Version)
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/healthz", http.StatusOK},
		{"GET", "/readyz", http.StatusOK},
		{"GET", "/neighbors?v=3", http.StatusOK},
		{"GET", "/hasedge?u=1&v=2", http.StatusOK},
		{"GET", "/neighbors?v=nope", http.StatusBadRequest},
		{"POST", "/update", http.StatusMethodNotAllowed},
		{"GET", "/shardinfo", http.StatusNotFound},
		{"GET", "/stats", http.StatusOK},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Role ShardInfo `json:"shard_role"`
		}
		if tc.path == "/stats" {
			if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
				t.Fatal(err)
			}
			if stats.Role != info {
				t.Fatalf("/stats shard_role = %+v, want %+v", stats.Role, info)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("X-Summary-Version"); got != want {
			t.Fatalf("%s %s: X-Summary-Version = %q, want %q", tc.method, tc.path, got, want)
		}
	}

	// A plain server stamps nothing on its probes.
	plain := httptest.NewServer(New(identityCompiled(graph.ErdosRenyi(10, 20, 1))).Handler())
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Summary-Version"); got != "" {
		t.Fatalf("plain server /healthz: X-Summary-Version = %q, want none", got)
	}
}

// TestShardVersionDistinct: the version is never 0 (unversioned), and
// no two shards share one, within a split or across two.
func TestShardVersionDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, epoch := range []string{
		"4f2a9c0d51e7b38a6c2d9e0f1a3b5c7d9e1f3a5b7c9d1e3f5a7b9c1d3e5f7a9b",
		"9e1f3a5b7c9d1e3f5a7b9c1d3e5f7a9b4f2a9c0d51e7b38a6c2d9e0f1a3b5c7d",
	} {
		for s := range 16 {
			v := ShardVersion(epoch, s)
			name := fmt.Sprintf("epoch %.8s shard %d", epoch, s)
			if v == 0 {
				t.Fatalf("%s: version 0", name)
			}
			if prev, ok := seen[v]; ok {
				t.Fatalf("%s and %s share version %d", prev, name, v)
			}
			seen[v] = name
		}
	}
}

func TestBinaryBatchNeighborsParity(t *testing.T) {
	srv, g, info := shardServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]int32, g.NumNodes())
	for i := range ids {
		ids[i] = int32(i)
	}
	body := EncodeNeighborsRequest(ids)
	resp, err := http.Post(ts.URL+"/batch/neighbors", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /batch/neighbors = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Summary-Version"); got != fmt.Sprint(info.Version) {
		t.Fatalf("X-Summary-Version = %q, want %q", got, fmt.Sprint(info.Version))
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lists, err := DecodeNeighborsResponse(buf.Bytes(), len(ids))
	if err != nil {
		t.Fatal(err)
	}
	for v, nbrs := range lists {
		if fmt.Sprint(nbrs) != fmt.Sprint(g.Neighbors(int32(v))) {
			t.Fatalf("binary neighbors(%d) = %v, want %v", v, nbrs, g.Neighbors(int32(v)))
		}
	}
}

func TestBinaryBatchRejections(t *testing.T) {
	srv, _, _ := shardServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string][]byte{
		"garbage":       []byte("not a batch"),
		"short":         {0x4e, 0x42},
		"out-of-range":  EncodeNeighborsRequest([]int32{99999}),
		"length-lie":    append(EncodeNeighborsRequest([]int32{1, 2}), 0xff),
		"over-item-cap": EncodeNeighborsRequest(make([]int32, MaxBatchItems+1)),
	} {
		resp, err := http.Post(ts.URL+"/batch/neighbors", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	ids := []int32{0, 5, 2, 2, 7}
	decoded, err := DecodeNeighborsRequestInto(nil, EncodeNeighborsRequest(ids), 10)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(decoded) != fmt.Sprint(ids) {
		t.Fatalf("request round-trip = %v, want %v", decoded, ids)
	}
	lists := [][]int32{{1, 2, 3}, nil, {9}}
	buf := AppendNeighborsResponseHeader(nil, len(lists))
	for _, l := range lists {
		buf = AppendNeighborsResponseList(buf, l)
	}
	back, err := DecodeNeighborsResponse(buf, len(lists))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back) != fmt.Sprint(lists) {
		t.Fatalf("response round-trip = %v, want %v", back, lists)
	}
	if _, err := DecodeNeighborsResponse(buf[:len(buf)-2], len(lists)); err == nil {
		t.Fatal("truncated response decoded without error")
	}
	if _, err := DecodeNeighborsResponse(buf, len(lists)+1); err == nil {
		t.Fatal("count mismatch decoded without error")
	}
	if _, err := DecodeNeighborsRequestInto(nil, EncodeNeighborsRequest(ids), len(ids)-1); err == nil {
		t.Fatal("over-cap request decoded without error")
	}
}
