package model

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
)

// rawCompiled wraps a graph in a trivial compiled summary (every vertex
// its own root, one p-edge per graph edge) — exact by construction, so
// federation bugs can't hide behind summarization bugs.
func rawCompiled(g *graph.Graph) *CompiledSummary {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	var edges []Edge
	g.ForEachEdge(func(u, v int32) { edges = append(edges, Edge{A: u, B: v, Sign: 1}) })
	return New(n, parent, edges).Compile()
}

// shardedFrom partitions g into k shards and federates raw per-shard
// compilations.
func shardedFrom(t *testing.T, g *graph.Graph, k int) *ShardedCompiled {
	t.Helper()
	p, err := graph.PartitionGraph(g, k)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*CompiledSummary, k)
	for s, sub := range p.Subgraphs {
		shards[s] = rawCompiled(sub)
	}
	sc, err := NewShardedCompiled(shards, p.GlobalID, p.Boundary)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestShardedCompiledParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er", graph.ErdosRenyi(120, 500, 3)},
		{"ba", graph.BarabasiAlbert(120, 3, 4)},
		{"caveman", graph.Caveman(6, 10, 4, 5)},
	} {
		single := rawCompiled(tc.g)
		for _, k := range []int{1, 2, 8} {
			sc := shardedFrom(t, tc.g, k)
			if sc.NumNodes() != tc.g.NumNodes() {
				t.Fatalf("%s k=%d: NumNodes %d != %d", tc.name, k, sc.NumNodes(), tc.g.NumNodes())
			}
			ctx := sc.AcquireCtx()
			qc := single.AcquireCtx()
			for v := int32(0); v < int32(tc.g.NumNodes()); v++ {
				want := fmt.Sprint(qc.NeighborsOf(v))
				if got := fmt.Sprint(ctx.NeighborsOf(v)); got != want {
					t.Fatalf("%s k=%d: neighbors(%d) = %s, want %s", tc.name, k, v, got, want)
				}
			}
			// Every edge plus a sample of non-edges.
			tc.g.ForEachEdge(func(u, v int32) {
				if !ctx.HasEdge(u, v) || !ctx.HasEdge(v, u) {
					t.Fatalf("%s k=%d: edge (%d,%d) missing", tc.name, k, u, v)
				}
			})
			n := int32(tc.g.NumNodes())
			for u := int32(0); u < n; u++ {
				for d := int32(1); d <= 7; d++ {
					v := (u + d*13) % n
					if u == v {
						continue
					}
					if ctx.HasEdge(u, v) != tc.g.HasEdge(u, v) {
						t.Fatalf("%s k=%d: hasedge(%d,%d) != graph", tc.name, k, u, v)
					}
				}
			}
			single.ReleaseCtx(qc)
			sc.ReleaseCtx(ctx)
			if !graph.Equal(sc.Decode(), tc.g) {
				t.Fatalf("%s k=%d: Decode differs from input", tc.name, k)
			}
		}
	}
}

func TestShardedCompiledConvenienceForms(t *testing.T) {
	g := graph.ErdosRenyi(60, 200, 9)
	sc := shardedFrom(t, g, 4)
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if fmt.Sprint(sc.NeighborsOf(v)) != fmt.Sprint(g.Neighbors(v)) {
			t.Fatalf("NeighborsOf(%d) differs from graph", v)
		}
	}
	if sc.HasEdge(3, 3) {
		t.Fatal("self-loop reported present")
	}
	count := 0
	sc.NeighborsBatch([]int32{0, 1, 2}, func(v int32, nbrs []int32) {
		if fmt.Sprint(nbrs) != fmt.Sprint(g.Neighbors(v)) {
			t.Fatalf("batch neighbors(%d) differ", v)
		}
		count++
	})
	if count != 3 {
		t.Fatalf("batch visited %d vertices, want 3", count)
	}
	if sc.Version() != 0 {
		t.Fatalf("fresh Version = %d, want 0 (unversioned)", sc.Version())
	}
	sc.SetVersion(42)
	if sc.Version() != 42 {
		t.Fatalf("Version after SetVersion = %d, want 42", sc.Version())
	}
	if sc.ShardOf(0) != sc.ShardOf(sc.GlobalIDs(int(sc.ShardOf(0)))[0]) {
		t.Fatal("routing accessors disagree")
	}
	if lv := sc.LocalOf(0); sc.GlobalIDs(int(sc.ShardOf(0)))[lv] != 0 {
		t.Fatalf("LocalOf(0) = %d does not map back to 0", lv)
	}
	if sc.NumShards() != 4 {
		t.Fatalf("NumShards = %d", sc.NumShards())
	}
	total := 0
	for s := 0; s < sc.NumShards(); s++ {
		total += sc.Shard(s).NumNodes()
	}
	if total != g.NumNodes() {
		t.Fatalf("shard sizes sum to %d, want %d", total, g.NumNodes())
	}
}

func TestNewShardedCompiledRejectsMalformed(t *testing.T) {
	g := graph.ErdosRenyi(20, 60, 1)
	p, err := graph.PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := []*CompiledSummary{rawCompiled(p.Subgraphs[0]), rawCompiled(p.Subgraphs[1])}

	check := func(name string, shards []*CompiledSummary, gid [][]int32, bnd [][2]int32) {
		t.Helper()
		if _, err := NewShardedCompiled(shards, gid, bnd); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	check("no shards", nil, nil, nil)
	check("map count mismatch", shards, p.GlobalID[:1], p.Boundary)

	short := [][]int32{p.GlobalID[0][:len(p.GlobalID[0])-1], p.GlobalID[1]}
	check("short id map", shards, short, p.Boundary)

	dup := [][]int32{append([]int32{}, p.GlobalID[0]...), append([]int32{}, p.GlobalID[1]...)}
	dup[1][0] = dup[0][0] // two shards own one vertex; some vertex unowned
	check("duplicate global id", shards, dup, nil)

	var intra [2]int32
	intra[0], intra[1] = p.GlobalID[0][0], p.GlobalID[0][1]
	check("intra-shard boundary edge", shards, p.GlobalID, [][2]int32{intra})
	check("self-loop boundary edge", shards, p.GlobalID, [][2]int32{{p.GlobalID[0][0], p.GlobalID[0][0]}})
	check("out-of-range boundary edge", shards, p.GlobalID, [][2]int32{{0, 99}})
	if len(p.Boundary) > 0 {
		dupb := [][2]int32{p.Boundary[0], p.Boundary[0]}
		check("duplicate boundary edge", shards, p.GlobalID, dupb)
	}
}

// TestShardedCompiledConcurrent hammers one ShardedCompiled from many
// goroutines; under -race this validates the pooled context federation.
func TestShardedCompiledConcurrent(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 6)
	sc := shardedFrom(t, g, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := sc.AcquireCtx()
			defer sc.ReleaseCtx(ctx)
			n := int32(g.NumNodes())
			for i := 0; i < 300; i++ {
				v := (int32(w)*31 + int32(i)) % n
				if fmt.Sprint(ctx.NeighborsOf(v)) != fmt.Sprint(g.Neighbors(v)) {
					errs <- fmt.Errorf("worker %d: neighbors(%d) diverged", w, v)
					return
				}
				u := (v + 1 + int32(i)%17) % n
				if u != v && ctx.HasEdge(u, v) != g.HasEdge(u, v) {
					errs <- fmt.Errorf("worker %d: hasedge(%d,%d) diverged", w, u, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
