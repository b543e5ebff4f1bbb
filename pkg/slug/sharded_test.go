package slug

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
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

// TestShardedK1ByteIdentical pins the k=1 guarantee: the single shard's
// embedded payload is byte-identical to the artifact the unsharded path
// produces under the same options.
func TestShardedK1ByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range shardParityGraphs() {
		opts := []Option{WithIterations(8), WithSeed(7)}
		direct, err := Get("slugger").Summarize(ctx, g, opts...)
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
		if _, err := sh.Shards[0].WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: k=1 shard payload differs from the unsharded artifact", name)
		}
		if len(sh.Boundary) != 0 {
			t.Fatalf("%s: k=1 has %d boundary edges", name, len(sh.Boundary))
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

func TestShardedEnvelopeRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(120, 500, 5)
	for _, algo := range []string{"slugger", "sweg"} {
		sh, err := SummarizeSharded(ctx, g, 3, WithIterations(5), WithSeed(1), WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, algo+".slgs")
		if err := Save(path, sh); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSharded(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Algorithm() != algo || back.NumShards() != 3 || back.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: metadata lost: %q/%d/%d", algo, back.Algorithm(), back.NumShards(), back.NumNodes())
		}
		if back.Cost() != sh.Cost() {
			t.Fatalf("%s: cost %d != %d after round trip", algo, back.Cost(), sh.Cost())
		}
		if !graph.Equal(back.Decode(), g) {
			t.Fatalf("%s: round-tripped artifact no longer decodes to the input", algo)
		}
		// Serialization is deterministic: a second write matches.
		var b1, b2 bytes.Buffer
		if _, err := sh.WriteTo(&b1); err != nil {
			t.Fatal(err)
		}
		if _, err := back.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s: round trip changed the serialized bytes", algo)
		}

		// Load reports sharded files distinctly instead of a generic
		// magic error.
		if _, err := Load(path); !errors.Is(err, ErrShardedArtifact) {
			t.Fatalf("Load(sharded file) = %v, want ErrShardedArtifact", err)
		}
	}
}

func TestReadShardedFromRejectsCorrupt(t *testing.T) {
	ctx := context.Background()
	g := graph.ErdosRenyi(60, 200, 5)
	sh, err := SummarizeSharded(ctx, g, 2, WithIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadShardedFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := ReadShardedFrom(bytes.NewReader([]byte("SLGA"))); err == nil {
		t.Fatal("wrong magic accepted")
	}
	for _, cut := range []int{5, 8, len(good) / 2, len(good) - 1} {
		if _, err := ReadShardedFrom(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte{}, good...)
	bad[4] = 99 // version byte
	if _, err := ReadShardedFrom(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown version accepted")
	}

	// An id-map gap past the int64 range is rejected, not wrapped into a
	// negative vertex id.
	huge, err := appendHeader(shardedMagic, shardedVersion, nil, "slugger")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []uint64{2, 1, 2, 1 << 63} { // n, k, shard 0's size, first gap
		huge = binary.AppendUvarint(huge, x)
	}
	if _, err := ReadShardedFrom(bytes.NewReader(huge)); err == nil {
		t.Fatal("id-map gap of 2^63 accepted")
	}

	// The boundary section ends the envelope: swap in corrupt sidecars.
	// Each would load with a wrong Cost() if it were accepted, and
	// WriteTo refuses to write any of them.
	tail := appendBoundary(nil, sh.Boundary)
	if !bytes.HasSuffix(good, tail) || len(sh.Boundary) < 2 {
		t.Fatalf("fixture: envelope does not end with its %d-edge boundary section", len(sh.Boundary))
	}
	head := good[:len(good)-len(tail)]
	b := sh.Boundary
	intra := [2]int32{sh.GlobalID[0][0], sh.GlobalID[0][1]}
	for name, bnd := range map[string][][2]int32{
		"duplicate edge":   append([][2]int32{b[0]}, b...),
		"intra-shard edge": append([][2]int32{intra}, b...),
		"unsorted sidecar": append([][2]int32{b[1], b[0]}, b[2:]...),
	} {
		corrupt := appendBoundary(slices.Clone(head), bnd)
		if _, err := ReadShardedFrom(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("%s: ReadShardedFrom accepted", name)
		}
		bad := &Sharded{algo: sh.algo, n: sh.n, Shards: sh.Shards, GlobalID: sh.GlobalID, Boundary: bnd}
		if _, err := bad.WriteTo(io.Discard); err == nil {
			t.Fatalf("%s: WriteTo accepted", name)
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

func TestWriteShardedToTemp(t *testing.T) {
	// Save/Load through a real file descriptor (exercises the os paths).
	ctx := context.Background()
	g := graph.ErdosRenyi(40, 120, 8)
	sh, err := SummarizeSharded(ctx, g, 2, WithIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.slgs")
	if err := Save(path, sh); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(path); err != nil {
		t.Fatal(err)
	}
}
