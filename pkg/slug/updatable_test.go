package slug_test

import (
	"context"
	"math/rand"
	"testing"

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
