package slug

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
)

func shardParityGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er": graph.ErdosRenyi(150, 600, 3),
		"ba": graph.BarabasiAlbert(150, 3, 4),
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
