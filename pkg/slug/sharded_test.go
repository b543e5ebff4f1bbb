package slug

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/algos"
	"repro/internal/graph"
)

func shardParityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er": graph.ErdosRenyi(150, 600, 3),
		"ba": graph.BarabasiAlbert(150, 3, 4),
	}
}

// TestShardedParity is the shard-parity suite of the acceptance
// criteria: for k in {1, 2, 8} on ER and BA graphs, the sharded
// artifact decodes to exactly the input, and its compiled union agrees
// with the unsharded compiled engine on every vertex's neighborhood, on
// edge probes, and on PageRank.
func TestShardedParity(t *testing.T) {
	ctx := context.Background()
	opts := []Option{WithIterations(8), WithSeed(1)}
	for name, g := range shardParityGraphs() {
		single, err := Get("slugger").Summarize(ctx, g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		scs, err := single.Queryable()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 8} {
			sh, err := SummarizeSharded(ctx, g, k, opts...)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if sh.Algorithm() != "slugger" || sh.NumShards() != k || sh.NumNodes() != g.NumNodes() {
				t.Fatalf("%s k=%d: artifact metadata %q/%d/%d", name, k, sh.Algorithm(), sh.NumShards(), sh.NumNodes())
			}
			if !graph.Equal(sh.Decode(), g) {
				t.Fatalf("%s k=%d: Decode differs from the input graph", name, k)
			}
			if err := sh.Validate(g); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			union, err := sh.Queryable()
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			// Neighbor parity on every vertex, edge parity on every edge
			// plus sampled non-edges.
			qc := scs.AcquireCtx()
			fc := union.AcquireCtx()
			n := int32(g.NumNodes())
			for v := int32(0); v < n; v++ {
				want := fmt.Sprint(qc.NeighborsOf(v))
				if got := fmt.Sprint(fc.NeighborsOf(v)); got != want {
					t.Fatalf("%s k=%d: neighbors(%d) = %s, want %s", name, k, v, got, want)
				}
			}
			g.ForEachEdge(func(u, v int32) {
				if !fc.HasEdge(u, v) {
					t.Fatalf("%s k=%d: edge (%d,%d) missing from the compiled union", name, k, u, v)
				}
			})
			for u := int32(0); u < n; u++ {
				for d := int32(1); d <= 5; d++ {
					v := (u + d*17) % n
					if u != v && fc.HasEdge(u, v) != qc.HasEdge(u, v) {
						t.Fatalf("%s k=%d: hasedge(%d,%d) diverges", name, k, u, v)
					}
				}
			}
			scs.ReleaseCtx(qc)
			union.ReleaseCtx(fc)

			// PageRank on the union matches the single engine to 1e-12:
			// both multiply on a hierarchy (MulAdj), in different orders.
			ss := algos.OnCompiled(scs)
			fs := algos.OnCompiled(union)
			pr1 := algos.PageRank(ss, 0.85, 20)
			pr2 := algos.PageRank(fs, 0.85, 20)
			ss.Release()
			fs.Release()
			for v := range pr1 {
				if diff := pr1[v] - pr2[v]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("%s k=%d: pagerank[%d] %g != %g", name, k, v, pr2[v], pr1[v])
				}
			}
		}
	}
}

// TestShardedK1ByteIdentical pins the k=1 guarantee: for every
// registered algorithm, the sharded build's saved bytes (its union) are
// the artifact the unsharded path produces under the same options.
func TestShardedK1ByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range shardParityGraphs() {
		for _, algo := range Algorithms() {
			opts := []Option{WithIterations(8), WithSeed(7), WithAlgorithm(algo)}
			direct, err := Get(algo).Summarize(ctx, g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := SummarizeSharded(ctx, g, 1, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var want, got bytes.Buffer
			if _, err := direct.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("%s/%s: k=1 sharded bytes differ from the unsharded artifact", name, algo)
			}
			if len(sh.Boundary) != 0 {
				t.Fatalf("%s/%s: k=1 has %d boundary edges", name, algo, len(sh.Boundary))
			}
		}
	}
}

func TestShardedDeterministicAcrossWorkerBudgets(t *testing.T) {
	ctx := context.Background()
	g := graph.BarabasiAlbert(150, 3, 9)
	var streams [][]byte
	for _, workers := range []int{1, 2, 8} {
		sh, err := SummarizeSharded(ctx, g, 4, WithIterations(6), WithSeed(2), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := sh.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
	}
	for i := 1; i < len(streams); i++ {
		if !bytes.Equal(streams[0], streams[i]) {
			t.Fatalf("worker budget changed the artifact bytes (stream %d)", i)
		}
	}
}

// TestShardedSaveLoadRoundTrip: Save writes the union, and Load reads
// it back as an ordinary *Hierarchical that costs, answers and ranks
// exactly like the sharded build it came from.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(120, 500, 5)
	for _, algo := range []string{"slugger", "sweg"} {
		sh, err := SummarizeSharded(ctx, g, 3, WithIterations(5), WithSeed(1), WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), algo+".slga")
		if err := Save(path, sh); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := back.(*Hierarchical); !ok || back.Algorithm() != algo || back.Cost() != sh.Cost() {
			t.Fatalf("%s: loaded %T %q at cost %d, want *Hierarchical %q at %d", algo, back, back.Algorithm(), back.Cost(), algo, sh.Cost())
		}
		want, err := sh.Queryable()
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Queryable()
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if !slices.Equal(got.NeighborsOf(v), want.NeighborsOf(v)) {
				t.Fatalf("%s: neighbors(%d) = %v after the round trip, want %v", algo, v, got.NeighborsOf(v), want.NeighborsOf(v))
			}
		}
		ws, gs := algos.OnCompiled(want), algos.OnCompiled(got)
		pw, pg := algos.PageRank(ws, 0.85, 20), algos.PageRank(gs, 0.85, 20)
		ws.Release()
		gs.Release()
		if !slices.Equal(pw, pg) {
			t.Fatalf("%s: PageRank differs after the round trip", algo)
		}
	}
}

func TestSummarizeShardedErrors(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(30, 90, 1)
	if _, err := SummarizeSharded(ctx, g, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SummarizeSharded(ctx, g, 31); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := SummarizeSharded(ctx, g, 2, WithAlgorithm("nope")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSummarizeShardedCancellation(t *testing.T) {
	g := graph.ErdosRenyi(400, 3000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SummarizeSharded(ctx, g, 4, WithIterations(20)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSummarizeShardedProgress(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(80, 300, 2)
	var events []Event
	sh, err := SummarizeSharded(ctx, g, 4, WithIterations(4),
		WithProgress(func(ev Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 4 iterations + done", len(events))
	}
	for i := 0; i < 4; i++ {
		ev := events[i]
		if ev.Stage != StageIteration || ev.Step != i+1 || ev.Total != 4 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	last := events[4]
	if last.Stage != StageDone || last.Cost != sh.Cost() {
		t.Fatalf("final event = %+v", last)
	}
}

// TestShardedBuildFasterSmoke only checks the sharded path completes
// and reports a sane cost; the actual speedup measurement lives in the
// benchmark (`go run ./bench -trace 1`: slug.summarize_sharded_s) since
// wall-clock assertions are flaky under CI load.
func TestShardedCostAccounting(t *testing.T) {
	ctx := context.Background()
	g := graph.Caveman(8, 10, 4, 3)
	sh, err := SummarizeSharded(ctx, g, 4, WithIterations(6))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range sh.Shards {
		sum += s.Cost()
	}
	if sh.Cost() != sum+int64(len(sh.Boundary)) {
		t.Fatalf("Cost %d != shards %d + boundary %d", sh.Cost(), sum, len(sh.Boundary))
	}
}
