package model_test

// A sharded build is one hierarchy: model.Union of its shard summaries
// is a lossless summary of the whole graph at exactly the sharded cost,
// for every registered algorithm and shard count, and it is what
// slug.Sharded.Queryable compiles. CheckSharding is the one validator
// of the partition, shared by Union and NewRouting.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// TestUnionProperty: for every registered algorithm, k ∈ {1, 2, 3, 8}
// and three graph shapes, the union costs exactly Sharded.Cost(),
// validates against the graph, answers every neighbor list and a sample
// of edge probes like the raw graph, is MulAdj-eligible with exact
// products, and gives PageRank within 1e-12 of the raw graph's. With
// k = 1 its compiled bytes are the unsharded artifact's.
func TestUnionProperty(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*graph.Graph{
		"er":      graph.ErdosRenyi(120, 500, 3),
		"ba":      graph.BarabasiAlbert(120, 3, 4),
		"caveman": graph.Caveman(6, 10, 4, 5),
	}
	for _, algo := range slug.Algorithms() {
		opts := []slug.Option{slug.WithAlgorithm(algo), slug.WithSeed(1), slug.WithIterations(5)}
		for name, g := range graphs {
			n := int32(g.NumNodes())
			raw := algos.PageRank(algos.Raw(g), 0.85, 20)
			for _, k := range []int{1, 2, 3, 8} {
				what := fmt.Sprintf("%s/%s/k=%d", algo, name, k)
				sh, err := slug.SummarizeSharded(ctx, g, k, opts...)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				shards := make([]*model.Summary, k)
				for s, art := range sh.Shards {
					shards[s] = art.(*slug.Hierarchical).Summary
				}
				union, err := model.Union(shards, sh.GlobalID, sh.Boundary)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if union.Cost() != sh.Cost() {
					t.Fatalf("%s: union costs %d, sharded artifact %d", what, union.Cost(), sh.Cost())
				}
				if err := union.Validate(g); err != nil {
					t.Fatalf("%s: %v", what, err)
				}

				cs, err := sh.Queryable()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if cs.NumSupernodes() != union.NumSupernodes() || int64(cs.NumSuperedges()) != union.PCount()+union.NCount() {
					t.Fatalf("%s: Queryable has %d supernodes / %d superedges, the union %d / %d",
						what, cs.NumSupernodes(), cs.NumSuperedges(), union.NumSupernodes(), union.PCount()+union.NCount())
				}
				for v := int32(0); v < n; v++ {
					if got := cs.NeighborsOf(v); !slices.Equal(got, g.Neighbors(v)) {
						t.Fatalf("%s: neighbors(%d) = %v, graph has %v", what, v, got, g.Neighbors(v))
					}
					for d := int32(0); d < 5; d++ {
						if u := (v + 1 + d*17) % n; cs.HasEdge(v, u) != g.HasEdge(v, u) {
							t.Fatalf("%s: hasedge(%d,%d) = %v, graph says %v", what, v, u, !g.HasEdge(v, u), g.HasEdge(v, u))
						}
					}
				}
				checkMulAdj(t, what, cs, int(n), g.Neighbors)
				src := algos.OnCompiled(cs)
				rank := algos.PageRank(src, 0.85, 20)
				src.Release()
				for v := range rank {
					if math.Abs(rank[v]-raw[v]) > 1e-12 {
						t.Fatalf("%s: pagerank[%d] = %v, raw graph gives %v", what, v, rank[v], raw[v])
					}
				}

				if k == 1 {
					direct, err := slug.Get(algo).Summarize(ctx, g, opts...)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					var want, got bytes.Buffer
					if _, err := slug.WriteCompiledTo(&want, direct); err != nil {
						t.Fatal(err)
					}
					if _, err := slug.WriteCompiledTo(&got, sh); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("%s: compiled union differs from the unsharded artifact's compiled bytes", what)
					}
				}
			}
		}
	}
}

// rawSummary is the trivial exact summary of g: every vertex its own
// root, one p-edge per edge.
func rawSummary(g *graph.Graph) *model.Summary {
	parent := make([]int32, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	var edges []model.Edge
	g.ForEachEdge(func(u, v int32) { edges = append(edges, model.Edge{A: u, B: v, Sign: 1}) })
	return model.New(g.NumNodes(), parent, edges)
}

func TestCheckShardingRejectsMalformed(t *testing.T) {
	g := graph.ErdosRenyi(20, 60, 1)
	p, err := graph.PartitionGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Boundary) < 2 {
		t.Fatalf("fixture has %d boundary edges, want at least 2", len(p.Boundary))
	}
	shards := []*model.Summary{rawSummary(p.Subgraphs[0]), rawSummary(p.Subgraphs[1])}
	if _, err := model.Union(shards, p.GlobalID, p.Boundary); err != nil {
		t.Fatalf("well-formed partition rejected: %v", err)
	}

	// Every malformed partition fails the shared check, so both of its
	// users refuse it.
	check := func(name string, gid [][]int32, bnd [][2]int32) {
		t.Helper()
		if _, _, err := model.CheckSharding(gid, bnd); err == nil {
			t.Fatalf("%s: CheckSharding accepted", name)
		}
		if _, err := model.NewRouting(gid, bnd); err == nil {
			t.Fatalf("%s: NewRouting accepted", name)
		}
		if len(gid) == len(shards) {
			if _, err := model.Union(shards, gid, bnd); err == nil {
				t.Fatalf("%s: Union accepted", name)
			}
		}
	}
	check("no shards", nil, nil)

	dup := [][]int32{slices.Clone(p.GlobalID[0]), slices.Clone(p.GlobalID[1])}
	dup[1][0] = dup[0][0] // two shards own one vertex; some vertex unowned
	check("duplicate global id", dup, nil)

	check("intra-shard boundary edge", p.GlobalID, [][2]int32{{p.GlobalID[0][0], p.GlobalID[0][1]}})
	check("self-loop boundary edge", p.GlobalID, [][2]int32{{p.GlobalID[0][0], p.GlobalID[0][0]}})
	check("reversed boundary edge", p.GlobalID, [][2]int32{{p.Boundary[0][1], p.Boundary[0][0]}})
	check("out-of-range boundary edge", p.GlobalID, [][2]int32{{0, 99}})
	check("duplicate boundary edge", p.GlobalID, [][2]int32{p.Boundary[0], p.Boundary[0]})
	check("unsorted boundary", p.GlobalID, [][2]int32{p.Boundary[1], p.Boundary[0]})

	// Union alone also needs one summary per id map, of the map's size.
	if _, err := model.Union(shards, p.GlobalID[:1], p.Boundary); err == nil {
		t.Fatal("map count mismatch: Union accepted")
	}
	big := len(p.GlobalID[0]) + 1
	wrong := model.New(big, slices.Repeat([]int32{-1}, big), nil)
	if _, err := model.Union([]*model.Summary{wrong, shards[1]}, p.GlobalID, p.Boundary); err == nil {
		t.Fatal("shard size mismatch: Union accepted")
	}
}

// TestRoutingAgreesWithPartition: the routing structure maps every
// vertex back to its shard and local id, and its boundary windows are
// sorted and hold exactly the partition's cross-shard edges.
func TestRoutingAgreesWithPartition(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 6)
	p, err := graph.PartitionGraph(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := model.NewRouting(p.GlobalID, p.Boundary)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumNodes() != g.NumNodes() || rt.NumShards() != 4 || rt.NumBoundaryEdges() != len(p.Boundary) {
		t.Fatalf("routing sizes %d/%d/%d", rt.NumNodes(), rt.NumShards(), rt.NumBoundaryEdges())
	}
	for s, ids := range p.GlobalID {
		for l, v := range ids {
			if int(rt.ShardOf(v)) != s || int(rt.LocalOf(v)) != l {
				t.Fatalf("vertex %d routes to shard %d local %d, want %d/%d", v, rt.ShardOf(v), rt.LocalOf(v), s, l)
			}
		}
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		var want []int32
		for _, u := range g.Neighbors(v) {
			if rt.ShardOf(u) != rt.ShardOf(v) {
				want = append(want, u)
			}
		}
		if got := rt.BoundaryOf(v); !slices.Equal(got, want) {
			t.Fatalf("BoundaryOf(%d) = %v, want %v", v, got, want)
		}
		for _, u := range want {
			if !rt.BoundaryHasEdge(v, u) || !rt.BoundaryHasEdge(u, v) {
				t.Fatalf("BoundaryHasEdge(%d,%d) = false", v, u)
			}
		}
	}
}
