package flatgreedy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestSingletonCosts(t *testing.T) {
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}})
	gr := New(g)
	if gr.PairCost(0, 1) != 1 || gr.PairCost(0, 2) != 0 {
		t.Fatalf("unexpected singleton pair costs")
	}
	if gr.Cost(1) != 2 {
		t.Fatalf("Cost(1) = %d, want 2", gr.Cost(1))
	}
}

func TestMergeBookkeeping(t *testing.T) {
	// Square 0-1-2-3-0.
	g := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	gr := New(g)
	m := gr.Merge(0, 2) // opposite corners: both adjacent to 1 and 3
	if !gr.Alive(m) || gr.Alive(2) {
		t.Fatal("merge liveness wrong")
	}
	if gr.Size(m) != 2 {
		t.Fatalf("size = %d", gr.Size(m))
	}
	if gr.Nbr[m][1] != 2 || gr.Nbr[m][3] != 2 {
		t.Fatalf("neighbor counts wrong: %v", gr.Nbr[m])
	}
	// Pair {m,1}: cnt=2, T=2 -> superedge cost 1.
	if gr.PairCost(m, 1) != 1 {
		t.Fatalf("PairCost(m,1) = %d", gr.PairCost(m, 1))
	}
	if !graph.Equal(gr.Encode().Decode(), g) {
		t.Fatal("encoding not lossless after merge")
	}
}

func TestMergeCostMatchesActual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(12+rng.Intn(15), 30+rng.Intn(40), seed)
		gr := New(g)
		// Random pre-merges.
		for k := 0; k < 4; k++ {
			a := int32(rng.Intn(g.NumNodes()))
			b := int32(rng.Intn(g.NumNodes()))
			if a != b && gr.Alive(a) && gr.Alive(b) && gr.GroupOf[a] != gr.GroupOf[b] {
				gr.Merge(gr.GroupOf[a], gr.GroupOf[b])
			}
		}
		// Pick two live groups; MergeCost prediction must equal the
		// recomputed Cost after the merge.
		var live []int32
		for id := int32(0); id < int32(len(gr.Members)); id++ {
			if gr.Alive(id) {
				live = append(live, id)
			}
		}
		if len(live) < 2 {
			return true
		}
		a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		if a == b {
			return true
		}
		predicted := gr.MergeCost(a, b)
		m := gr.Merge(a, b)
		return gr.Cost(m) == predicted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveVertexRoundTrip(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}})
	gr := New(g)
	gr.Merge(0, 1)
	before := snapshotCounts(gr)
	target := gr.NewGroup()
	gr.MoveVertex(1, target)
	gr.MoveVertex(1, 0)
	after := snapshotCounts(gr)
	if len(before) != len(after) {
		t.Fatalf("count maps differ in size: %d vs %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("count %v changed %d -> %d", k, v, after[k])
		}
	}
	if !graph.Equal(gr.Encode().Decode(), g) {
		t.Fatal("not lossless after move round trip")
	}
}

func snapshotCounts(gr *Grouping) map[[2]int32]int64 {
	out := make(map[[2]int32]int64)
	for a := int32(0); a < int32(len(gr.Nbr)); a++ {
		if gr.Nbr[a] == nil {
			continue
		}
		for b, c := range gr.Nbr[a] {
			if b >= a && c != 0 {
				out[[2]int32{a, b}] = c
			}
		}
	}
	return out
}

func TestMoveVertexLossless(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(10+rng.Intn(20), 30+rng.Intn(40), seed)
		gr := New(g)
		for k := 0; k < 20; k++ {
			v := int32(rng.Intn(g.NumNodes()))
			var to int32
			if rng.Intn(3) == 0 {
				to = gr.NewGroup()
			} else {
				to = gr.GroupOf[rng.Intn(g.NumNodes())]
			}
			gr.MoveVertex(v, to)
		}
		return graph.Equal(gr.Encode().Decode(), g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSavingPositiveForTwins(t *testing.T) {
	// Two vertices with identical neighborhoods compress well.
	g := graph.FromEdges(6, [][2]int32{
		{0, 2}, {0, 3}, {0, 4}, {0, 5},
		{1, 2}, {1, 3}, {1, 4}, {1, 5},
	})
	gr := New(g)
	if s := gr.Saving(0, 1); s <= 0 {
		t.Fatalf("Saving(0,1) = %f, want > 0", s)
	}
	// Disconnected vertices have non-positive denominators.
	g2 := graph.FromEdges(3, nil)
	gr2 := New(g2)
	if s := gr2.Saving(0, 1); s >= 0 {
		t.Fatalf("Saving on empty graph = %f, want < 0", s)
	}
}

func TestMergePanics(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}})
	gr := New(g)
	gr.Merge(0, 1)
	for _, bad := range [][2]int32{{0, 0}, {0, 1}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic merging %v", bad)
				}
			}()
			gr.Merge(bad[0], bad[1])
		}()
	}
}
