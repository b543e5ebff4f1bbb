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

func shardServer(t *testing.T) (*Server, *graph.Graph, ShardInfo) {
	t.Helper()
	g := graph.ErdosRenyi(80, 300, 11)
	info := ShardInfo{Shard: 1, Shards: 3, Epoch: "deadbeef", Nodes: g.NumNodes(), Version: 7, Algorithm: "slugger"}
	return NewShard(identityCompiled(g), info), g, info
}

func TestShardInfoEndpoint(t *testing.T) {
	srv, g, info := shardServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/shardinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /shardinfo = %d", resp.StatusCode)
	}
	var got ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Fatalf("shardinfo = %+v, want %+v", got, info)
	}
	if got.Nodes != g.NumNodes() {
		t.Fatalf("shardinfo nodes = %d, want %d", got.Nodes, g.NumNodes())
	}

	// Non-shard servers don't expose the endpoint.
	plain := httptest.NewServer(New(identityCompiled(g)).Handler())
	defer plain.Close()
	r2, err := http.Get(plain.URL + "/shardinfo")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /shardinfo on plain server = %d, want 404", r2.StatusCode)
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
