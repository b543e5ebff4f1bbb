// Sharding: partition-parallel summarization. The graph is cut into k
// shards by the deterministic edge-cut partitioner, every shard is
// summarized concurrently under one worker budget, and the result —
// per-shard summaries plus a boundary-edge sidecar — decodes
// losslessly, round-trips through a split directory (one file per
// shard plus a manifest, a federation's input), and compiles into one
// ordinary compiled summary: the union of the shard hierarchies, with
// every boundary edge a leaf–leaf p-edge (what Save writes).
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/pkg/slug"
)

func main() {
	// A power-law graph (Barabási–Albert preferential attachment): the
	// degree skew of real social networks, and the reason shard balance
	// is a vertex-count cap rather than wishful thinking.
	g := graph.BarabasiAlbert(1200, 3, 7)
	fmt.Printf("input: %d nodes, %d edges (max degree %d, mean %.1f)\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree(),
		float64(2*g.NumEdges())/float64(g.NumNodes()))

	// Step 1: what does the partitioner do? (SummarizeSharded runs this
	// internally; calling it directly shows the cut.)
	const k = 4
	part, err := graph.PartitionGraph(g, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npartition into %d shards: sizes %v, edge cut %d (%.1f%% of edges)\n",
		k, part.ShardSizes(), part.EdgeCut(),
		100*float64(part.EdgeCut())/float64(g.NumEdges()))

	// Step 2: summarize per shard, concurrently. The worker budget is
	// shared across shards: here GOMAXPROCS workers total, split over
	// up to k concurrent shard builds. The artifact is deterministic
	// for a fixed seed whatever the budget.
	ctx := context.Background()
	opts := []slug.Option{
		slug.WithIterations(10),
		slug.WithSeed(1),
		slug.WithWorkers(runtime.GOMAXPROCS(0)),
		slug.WithProgress(func(ev slug.Event) {
			if ev.Stage == slug.StageIteration {
				fmt.Printf("  shard %d/%d done\n", ev.Step, ev.Total)
			}
		}),
	}
	start := time.Now()
	sh, err := slug.SummarizeSharded(ctx, g, k, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sharded build: cost %d in %s\n", sh.Cost(), time.Since(start).Round(time.Millisecond))

	// The single-summary baseline, for the cost comparison: one global
	// summary can merge across the whole graph, so it compresses
	// better; the sidecar edges are the price of shard independence.
	start = time.Now()
	single, err := slug.Get("slugger").Summarize(ctx, g, slug.WithIterations(10), slug.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single build:  cost %d in %s (sharding overhead: %d boundary edges)\n",
		single.Cost(), time.Since(start).Round(time.Millisecond), len(sh.Boundary))

	// Step 3: losslessness — the sharded artifact decodes to exactly
	// the input.
	if !graph.Equal(sh.Decode(), g) {
		log.Fatal("sharded decode differs from the input graph")
	}
	fmt.Println("\ndecode: lossless (shards + boundary reproduce the input exactly)")

	// Step 4: a split directory round trip. Split writes each shard's
	// ordinary artifact file and id map beside a digest manifest;
	// OpenSplit verifies them all and restores the sharded build.
	dir, err := os.MkdirTemp("", "sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := sh.Split(dir, "v1"); err != nil {
		log.Fatal(err)
	}
	back, err := slug.OpenSplit(filepath.Join(dir, slug.ManifestFilename))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round trip: split directory restored %d shards, algorithm %q, cost %d, same epoch %v\n",
		back.NumShards(), back.Algorithm(), back.Cost(), back.Epoch() == sh.Epoch())

	// Step 5: queries. Compile once: the shards' trees side by side under
	// global ids, plus one p-edge per boundary edge, at exactly the
	// sharded cost — global ids in, global ids out.
	cs, err := back.Queryable()
	if err != nil {
		log.Fatal(err)
	}
	v := int32(3) // an early hub
	fmt.Printf("\nqueries on one compiled summary (%d supernodes, %d superedges; vertex %d lives in shard %d):\n",
		cs.NumSupernodes(), cs.NumSuperedges(), v, shardOf(back, v))
	nbrs := cs.NeighborsOf(v)
	fmt.Printf("  neighbors(%d): %d of them, first few %v\n", v, len(nbrs), nbrs[:min(5, len(nbrs))])
	for _, u := range nbrs {
		if shardOf(back, u) != shardOf(back, v) {
			fmt.Printf("  hasedge(%d,%d) = %v (a cross-shard edge: one leaf–leaf p-edge)\n", v, u, cs.HasEdge(v, u))
			break
		}
	}

	// PageRank runs on it like on any compiled summary.
	src := algos.OnCompiled(cs)
	rank := algos.PageRank(src, 0.85, 20)
	src.Release()
	best, bestRank := 0, 0.0
	for u, r := range rank {
		if r > bestRank {
			best, bestRank = u, r
		}
	}
	fmt.Printf("  pagerank top vertex: %d (rank %.5f)\n", best, bestRank)
	fmt.Println("\nServe it over HTTP with: go run ./cmd/serve -in <edges> -shards 4")
}

// shardOf returns the shard owning global vertex v.
func shardOf(sh *slug.Sharded, v int32) int {
	for s, ids := range sh.GlobalID {
		if _, ok := slices.BinarySearch(ids, v); ok {
			return s
		}
	}
	return -1
}
