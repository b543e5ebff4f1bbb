package slug_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// updateStream generates a reproducible mixed insert/delete stream over
// n vertices and returns the mutated edge set alongside.
func updateStream(g *graph.Graph, count int, seed int64) ([]model.EdgeUpdate, *graph.Graph) {
	n := g.NumNodes()
	set := make(map[[2]int32]bool)
	g.ForEachEdge(func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		set[[2]int32{u, v}] = true
	})
	rng := rand.New(rand.NewSource(seed))
	ups := make([]model.EdgeUpdate, 0, count)
	for len(ups) < count {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		del := rng.Float64() < 0.4
		ups = append(ups, model.EdgeUpdate{U: u, V: v, Delete: del})
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if del {
			delete(set, [2]int32{a, b})
		} else {
			set[[2]int32{a, b}] = true
		}
	}
	b := graph.NewBuilder(n)
	for e := range set {
		b.AddEdge(e[0], e[1])
	}
	return ups, b.Build()
}

// TestUpdatableQueryParity is the acceptance check of the live-update
// subsystem: after an arbitrary insert/delete stream, every query
// through the overlay — NeighborsOf, HasEdge, and PageRank — must match
// a from-scratch summarize+compile of the mutated graph.
func TestUpdatableQueryParity(t *testing.T) {
	g := testGraph()
	opts := []slug.Option{slug.WithIterations(5), slug.WithSeed(7)}
	art, err := slug.Get("slugger").Summarize(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	up, err := slug.NewUpdatable(art, opts...)
	if err != nil {
		t.Fatal(err)
	}

	ups, mutated := updateStream(g, 200, 3)
	// Apply in several batches to exercise snapshot chaining.
	for i := 0; i < len(ups); i += 37 {
		end := min(i+37, len(ups))
		if _, err := up.ApplyUpdates(ups[i:end]); err != nil {
			t.Fatal(err)
		}
	}

	// From-scratch reference: summarize the mutated graph and compile.
	ref, err := slug.Get("slugger").Summarize(context.Background(), mutated, opts...)
	if err != nil {
		t.Fatal(err)
	}
	refCS, err := ref.Queryable()
	if err != nil {
		t.Fatal(err)
	}

	view := up.View()
	c := view.AcquireCtx()
	defer view.ReleaseCtx(c)
	refCtx := refCS.AcquireCtx()
	defer refCS.ReleaseCtx(refCtx)
	n := int32(view.NumNodes())
	for v := int32(0); v < n; v++ {
		got := c.NeighborsOf(v)
		want := refCtx.NeighborsOf(v)
		if len(got) != len(want) {
			t.Fatalf("NeighborsOf(%d): overlay %v, rebuild %v", v, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("NeighborsOf(%d): overlay %v, rebuild %v", v, got, want)
			}
		}
	}
	for v := int32(0); v < n; v++ {
		for u := int32(0); u < n; u++ {
			if view.HasEdge(v, u) != refCtx.HasEdge(v, u) {
				t.Fatalf("HasEdge(%d,%d): overlay %v, rebuild %v", v, u, view.HasEdge(v, u), refCtx.HasEdge(v, u))
			}
		}
	}

	// PageRank through the overlay vs the from-scratch compilation.
	liveSrc := algos.OnView(view)
	livePR := algos.PageRank(liveSrc, 0.85, 20)
	liveSrc.Release()
	refSrc := algos.OnCompiled(refCS)
	refPR := algos.PageRank(refSrc, 0.85, 20)
	refSrc.Release()
	for v := range livePR {
		if math.Abs(livePR[v]-refPR[v]) > 1e-12 {
			t.Fatalf("PageRank[%d] = %g via overlay, %g via rebuild", v, livePR[v], refPR[v])
		}
	}

	// And the same parity must hold after compaction.
	if err := up.Compact(); err != nil {
		t.Fatal(err)
	}
	if up.View().Len() != 0 {
		t.Fatalf("overlay not empty after Compact: %d", up.View().Len())
	}
	if !graph.Equal(up.View().Decode(), mutated) {
		t.Fatal("compacted summary does not represent the mutated graph")
	}
}

// TestUpdatableDeterministicArtifact checks that the same update stream
// yields byte-identical serialized artifacts: overlay application and
// compaction (seeded rebuild) are deterministic.
func TestUpdatableDeterministicArtifact(t *testing.T) {
	run := func() []byte {
		g := testGraph()
		opts := []slug.Option{slug.WithIterations(5), slug.WithSeed(7)}
		art, err := slug.Get("slugger").Summarize(context.Background(), g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		up, err := slug.NewUpdatable(art, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ups, _ := updateStream(g, 150, 9)
		if _, err := up.ApplyUpdates(ups); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := up.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same update stream produced different artifacts (%d vs %d bytes)", len(a), len(b))
	}
}

// TestUpdatableAutoCompaction drives enough updates through a small
// threshold to trigger background compactions and checks the final
// state still represents the mutated graph.
func TestUpdatableAutoCompaction(t *testing.T) {
	g := testGraph()
	opts := []slug.Option{slug.WithIterations(3), slug.WithSeed(7), slug.WithCompactionThreshold(25)}
	art, err := slug.Get("slugger").Summarize(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	up, err := slug.NewUpdatable(art, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ups, mutated := updateStream(g, 300, 5)
	for i := 0; i < len(ups); i += 10 {
		end := min(i+10, len(ups))
		if _, err := up.ApplyUpdates(ups[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	up.Live().Quiesce()
	if err := up.Live().CompactionErr(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}
	if st := up.Live().Stats(); st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if !graph.Equal(up.View().Decode(), mutated) {
		t.Fatal("live view does not represent the mutated graph")
	}
	// Cost reflects the live state: base plus overlay corrections.
	if up.Cost() <= 0 {
		t.Fatalf("implausible live cost %d", up.Cost())
	}
}

// TestUpdatableRejectsUnknownAlgorithm covers the registry guard.
func TestUpdatableRejectsUnknownAlgorithm(t *testing.T) {
	sum, _ := core.Summarize(testGraph(), core.Config{T: 2, Seed: 1})
	art := slug.NewHierarchical("not-registered", sum)
	if _, err := slug.NewUpdatable(art); err == nil {
		t.Fatal("NewUpdatable accepted an unregistered algorithm")
	}
}
