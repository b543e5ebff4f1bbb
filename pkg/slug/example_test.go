package slug_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// Example tours the unified API: the algorithm registry, a baseline's
// build tuned with options and watched through progress events, and a
// round trip through the versioned envelope, which records the
// producing algorithm so a loaded artifact knows what built it.
func Example() {
	g := graph.Caveman(6, 10, 8, 42)
	fmt.Printf("input: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Println("registered:", slug.Algorithms())

	art := must(slug.Get("sweg").Summarize(context.Background(), g,
		slug.WithIterations(10),
		slug.WithSeed(7),
		slug.WithProgress(func(ev slug.Event) {
			if ev.Stage == slug.StageDone {
				fmt.Printf("done: cost %d\n", ev.Cost)
			} else if ev.Step%5 == 0 {
				fmt.Printf("iteration %d/%d\n", ev.Step, ev.Total)
			}
		})))

	var buf bytes.Buffer
	must(art.WriteTo(&buf))
	fmt.Printf("serialized: %d bytes\n", buf.Len())
	restored := must(slug.ReadFrom(&buf))
	fmt.Printf("restored: algorithm %s, cost %d, lossless %v\n",
		restored.Algorithm(), restored.Cost(), graph.Equal(restored.Decode(), g))
	// Output:
	// input: 60 nodes, 281 edges
	// registered: [mosso randomized sags slugger sweg]
	// iteration 5/10
	// iteration 10/10
	// done: cost 77
	// serialized: 136 bytes
	// restored: algorithm sweg, cost 77, lossless true
}

// Example_cancel stops a build from its first progress event: it
// returns promptly with ctx.Err(). The same mechanism serves timeouts
// (context.WithTimeout) and Ctrl-C (signal.NotifyContext).
func Example_cancel() {
	g := graph.Caveman(6, 10, 8, 42)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := slug.Get("slugger").Summarize(ctx, g,
		slug.WithIterations(50),
		slug.WithProgress(func(ev slug.Event) {
			if ev.Step == 1 {
				cancel()
			}
		}))
	fmt.Println(err, errors.Is(err, context.Canceled))
	// Output:
	// context canceled true
}

// ExampleNewUpdatable keeps a summary queryable while the graph
// changes. Edge insertions and deletions land in a delta overlay on the
// compiled base; once the overlay grows past the compaction threshold
// the graph is re-summarized in the background and the fresh base
// swapped in atomically.
func ExampleNewUpdatable() {
	g := graph.Caveman(6, 10, 8, 42)
	opts := []slug.Option{
		slug.WithIterations(10),
		slug.WithSeed(1),
		// Re-summarize once 40 corrections accumulate. A low threshold
		// keeps queries near base speed but rebuilds often; 0 disables
		// auto-compaction.
		slug.WithCompactionThreshold(40),
	}
	art := must(slug.Get("slugger").Summarize(context.Background(), g, opts...))
	// The options are replayed on every compaction rebuild, so the
	// maintained artifact stays deterministic.
	live := must(slug.NewUpdatable(art, opts...))

	applied := must(live.ApplyUpdates([]model.EdgeUpdate{
		{U: 0, V: 15},
		{U: 0, V: 25},
		{U: 0, V: 35},
		{U: 0, V: 1, Delete: true},
	}))
	// A View is an immutable snapshot that sees every applied update.
	view := live.View()
	fmt.Printf("applied %d; 0's neighbors %v; edge 0-1 %v; overlay +%d/-%d\n",
		applied, view.NeighborsOf(0), view.HasEdge(0, 1), view.Insertions(), view.Deletions())

	// Enough churn to cross the compaction threshold.
	var churn []model.EdgeUpdate
	for v := int32(1); v <= 50; v++ {
		if v != 30 {
			churn = append(churn, model.EdgeUpdate{U: 30, V: v, Delete: view.HasEdge(30, v)})
		}
	}
	must(live.ApplyUpdates(churn))
	live.Live().Quiesce() // wait out the background compaction
	check(live.Live().CompactionErr())
	st := live.Live().Stats()
	fmt.Printf("after churn: %d compaction(s), overlay +%d/-%d\n", st.Compactions, st.Insertions, st.Deletions)

	// The live summary represents the mutated graph exactly.
	mutated := live.View().Decode()
	fresh := must(slug.Get("slugger").Summarize(context.Background(), mutated, opts...))
	fmt.Printf("live cost %d, fresh build cost %d, same graph %v\n",
		live.Cost(), fresh.Cost(), graph.Equal(fresh.Decode(), mutated))

	// Saving compacts first, so the file is a self-contained summary of
	// the live graph.
	dir := must(os.MkdirTemp("", "slug-updatable-*"))
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "live.slga")
	check(slug.Save(path, live))
	reloaded := must(slug.Load(path))
	fmt.Printf("reloaded: algorithm %s, cost %d\n", reloaded.Algorithm(), reloaded.Cost())
	// Output:
	// applied 3; 0's neighbors [2 3 4 5 6 7 8 9 15 25 35]; edge 0-1 false; overlay +2/-1
	// after churn: 1 compaction(s), overlay +0/-0
	// live cost 87, fresh build cost 87, same graph true
	// reloaded: algorithm slugger, cost 87
}

// ExampleOpenUpdatable shows acknowledged updates surviving a crash.
// Every effective batch is in the write-ahead log before ApplyUpdates
// returns; reopening the directory alone recovers the exact
// acknowledged state. The crash is an updatable abandoned without
// Close, so recovery can rely only on what the log promised at ack
// time.
func ExampleOpenUpdatable() {
	g := graph.Caveman(6, 10, 8, 42)
	opts := []slug.Option{slug.WithIterations(10), slug.WithSeed(1)}
	art := must(slug.Get("slugger").Summarize(context.Background(), g, opts...))
	dir := must(os.MkdirTemp("", "slug-wal-*"))
	defer os.RemoveAll(dir)

	// SyncAlways fsyncs every record before the update is acknowledged;
	// SyncInterval batches syncs at the price of a bounded loss window.
	live := must(slug.NewUpdatable(art, append(opts, slug.WithDurability(dir, slug.SyncAlways()))...))
	// A never-logged twin applies the same batches: recovery must
	// reproduce its bytes. (Serializing the durable one would compact
	// and checkpoint, leaving recovery nothing to replay.)
	reference := must(slug.NewUpdatable(art, opts...))
	for _, b := range [][]model.EdgeUpdate{
		{{U: 0, V: 15}, {U: 0, V: 25}},
		{{U: 0, V: 35}},
		{{U: 0, V: 1, Delete: true}, {U: 2, V: 3, Delete: true}},
	} {
		must(live.ApplyUpdates(b))
		must(reference.ApplyUpdates(b))
	}
	ds := live.Durability()
	fmt.Printf("logged %d batches (fsync %s, last LSN %d)\n", ds.Appends, ds.Policy, ds.LastLSN)
	var want bytes.Buffer
	must(reference.WriteTo(&want))

	// Crash: no Close, no flush. The directory alone is enough to
	// recover: checkpoint plus the logged update suffix.
	live = nil
	recovered := must(slug.OpenUpdatable(dir, slug.SyncAlways(), opts...))
	defer recovered.Close()
	rds := recovered.Durability()
	fmt.Printf("recovered: checkpoint %v, replayed %d batches\n", rds.RecoveredCheckpoint, rds.RecoveredRecords)
	var got bytes.Buffer
	must(recovered.WriteTo(&got))
	fmt.Println("byte-equal to the never-crashed twin:", bytes.Equal(got.Bytes(), want.Bytes()))
	view := recovered.View()
	fmt.Printf("0's neighbors %v; edge 0-1 %v\n", view.NeighborsOf(0), view.HasEdge(0, 1))

	// The recovered updatable keeps accepting durable updates.
	must(recovered.ApplyUpdates([]model.EdgeUpdate{{U: 1, V: 15}}))
	fmt.Println("next update acked at LSN", recovered.Durability().LastLSN)

	// The compiled (v2) layout is also a standalone boot file: memory-map
	// it and answer queries with no decode and no recompile.
	v2 := filepath.Join(dir, "snapshot.slgc")
	check(slug.SaveCompiled(v2, recovered))
	mapped := must(slug.OpenMapped(v2))
	defer mapped.Close()
	cs := must(mapped.Queryable())
	fmt.Printf("mapped boot file: 1's neighbors %v\n", cs.NeighborsOf(1))
	// Output:
	// logged 3 batches (fsync always, last LSN 3)
	// recovered: checkpoint true, replayed 3 batches
	// byte-equal to the never-crashed twin: true
	// 0's neighbors [2 3 4 5 6 7 8 9 15 25 35]; edge 0-1 false
	// next update acked at LSN 4
	// mapped boot file: 1's neighbors [2 3 4 5 6 7 8 9 15]
}

// ExampleSummarizeSharded summarizes a graph partition-parallel: the
// deterministic edge-cut partitioner cuts it into k shards, each is
// summarized concurrently under one worker budget, and the cut edges
// are kept raw in a boundary sidecar. The build decodes losslessly,
// round-trips through a split directory (a federation's input), and
// compiles into one summary: the union of the shard hierarchies.
func ExampleSummarizeSharded() {
	// Barabási–Albert: the degree skew of a social network.
	g := graph.BarabasiAlbert(1200, 3, 7)
	const k = 4
	part := must(graph.PartitionGraph(g, k))
	fmt.Printf("%d shards: sizes %v, edge cut %d of %d\n", k, part.ShardSizes(), part.EdgeCut(), g.NumEdges())

	// The artifact is the same for a fixed seed whatever the budget.
	ctx := context.Background()
	sh := must(slug.SummarizeSharded(ctx, g, k,
		slug.WithIterations(10), slug.WithSeed(1), slug.WithWorkers(runtime.GOMAXPROCS(0))))
	// One global summary merges across the whole graph and compresses
	// better: the boundary edges are the price of shard independence.
	single := must(slug.Get("slugger").Summarize(ctx, g, slug.WithIterations(10), slug.WithSeed(1)))
	fmt.Printf("sharded cost %d (%d boundary edges), single cost %d, lossless %v\n",
		sh.Cost(), len(sh.Boundary), single.Cost(), graph.Equal(sh.Decode(), g))

	// Split writes each shard's artifact and id map beside a digest
	// manifest; OpenSplit verifies them all and restores the build.
	dir := must(os.MkdirTemp("", "slug-split-*"))
	defer os.RemoveAll(dir)
	must(sh.Split(dir, "v1"))
	back := must(slug.OpenSplit(filepath.Join(dir, slug.ManifestFilename)))
	fmt.Printf("split round trip: %d shards, cost %d, same epoch %v\n",
		back.NumShards(), back.Cost(), back.Epoch() == sh.Epoch())

	// One compiled summary at exactly the sharded cost: global ids in,
	// global ids out. PageRank runs on it like on any compiled summary.
	cs := must(back.Queryable())
	nbrs := cs.NeighborsOf(3)
	fmt.Printf("%d supernodes, %d superedges; vertex 3 has %d neighbors, first %v\n",
		cs.NumSupernodes(), cs.NumSuperedges(), len(nbrs), nbrs[:5])
	src := algos.OnCompiled(cs)
	rank := algos.PageRank(src, 0.85, 20)
	src.Release()
	best := 0
	for u, r := range rank {
		if r > rank[best] {
			best = u
		}
	}
	fmt.Printf("pagerank top vertex %d (rank %.5f)\n", best, rank[best])
	// Output:
	// 4 shards: sizes [300 300 300 300], edge cut 1998 of 3594
	// sharded cost 3568 (1998 boundary edges), single cost 3570, lossless true
	// split round trip: 4 shards, cost 3568, same epoch true
	// 1268 supernodes, 3416 superedges; vertex 3 has 73 neighbors, first [0 1 2 4 5]
	// pagerank top vertex 4 (rank 0.01521)
}

// must returns v, or stops the example on a non-nil err.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check stops the example on a non-nil err.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
