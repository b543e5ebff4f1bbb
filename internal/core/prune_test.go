package core

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestStep1RemovesEdgelessSupernode: a merged supernode with no
// incident p/n-edges only wastes h-edges and must be spliced out.
func TestStep1RemovesEdgelessSupernode(t *testing.T) {
	g := graph.FromEdges(2, nil)
	st := newState(g, rand.New(rand.NewSource(1)))
	ctx := st.getCtx()
	dec := &mergeDecision{a: 0, b: 1, within: withinPlan{scenario: withinKeep}}
	m := st.commitMerge(ctx, dec, st.reserveIDs(1)[0])
	pr := newPruner(st)
	if pr.cost() != 2 {
		t.Fatalf("pre-prune cost = %d, want 2 (two h-edges)", pr.cost())
	}
	if !pr.step1() {
		t.Fatal("step1 made no change")
	}
	if pr.alive[m] {
		t.Fatal("edgeless supernode survived step1")
	}
	if pr.cost() != 0 {
		t.Fatalf("post-prune cost = %d, want 0", pr.cost())
	}
	sum := pr.emit()
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestStep2PushesSingleEdgeDown: a root with exactly one incident
// non-loop edge costs more in h-edges than pushing the edge to its
// children.
func TestStep2PushesSingleEdgeDown(t *testing.T) {
	// Star: 0 adjacent to both 1 and 2; merging 1,2 yields root M with
	// the single cross edge (M, 0).
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {0, 2}})
	st := newState(g, rand.New(rand.NewSource(1)))
	ctx := st.getCtx()
	m := st.tryMerge(ctx, 1, 2, 0)
	if m < 0 {
		t.Fatal("merge evaluation failed")
	}
	pr := newPruner(st)
	preCost := pr.cost() // 2 h-edges + 1 p-edge = 3
	if preCost != 3 {
		t.Fatalf("pre-prune cost = %d, want 3", preCost)
	}
	if !pr.step2() {
		t.Fatal("step2 made no change")
	}
	if pr.alive[m] {
		t.Fatal("single-edge root survived step2")
	}
	if pr.cost() != 2 {
		t.Fatalf("post-step2 cost = %d, want 2 (the two original edges)", pr.cost())
	}
	sum := pr.emit()
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestStep2FlipsOppositeEdges: pushing an edge down removes an
// opposite-type edge between the child and the other endpoint instead
// of adding a parallel one.
func TestStep2FlipsOppositeEdges(t *testing.T) {
	// Represent edges (0,2) only, of the pair {0,1} x {2}: p(M,2) covers
	// (0,2) and (1,2); n(1,2) removes (1,2). After step2 the p-edge is
	// pushed down to (0,2),(1,2) and the n-edge cancels with the new
	// (1,2) p-edge.
	g := graph.FromEdges(3, [][2]int32{{0, 2}})
	st := newState(g, rand.New(rand.NewSource(1)))
	ctx := st.getCtx()
	m := st.reserveIDs(1)[0]
	dec := &mergeDecision{a: 0, b: 1, within: withinPlan{scenario: withinKeep}}
	dec.crosses = []crossPlan{{c: 2, keep: false,
		prob: &bipProblem{}, plan: bipPlan{}}}
	// Hand-build the cross entry instead of materializing the plan.
	st.commitMerge(ctx, dec, m)
	linkEntry(st, m, 2, crossEntry{edges: []sedge{{a: m, b: 2, sign: 1}, {a: 1, b: 2, sign: -1}},
		row: m, blocks: blockCounts{{1, 0}, {0, 0}}})
	pr := newPruner(st)
	// Sanity: pre-prune model is exact.
	if err := pr.emit().Validate(g); err != nil {
		t.Fatalf("hand-built state invalid: %v", err)
	}
	// Step 2 does not fire (M has... it has 1 incident pair? (M,2) only;
	// |net|=1 -> eligible). After push-down: (0,2)+1, (1,2)+1 cancels -1.
	if !pr.step2() {
		t.Fatal("step2 made no change")
	}
	if pr.cost() != 1 {
		t.Fatalf("cost = %d, want 1 (single p-edge (0,2))", pr.cost())
	}
	if err := pr.emit().Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestStep3AdoptsFlatEncoding: when the flat superedge encoding of a
// root pair is cheaper than the current subnode-level listing, step 3
// replaces it.
func TestStep3AdoptsFlatEncoding(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 2}, {1, 2}})
	st := newState(g, rand.New(rand.NewSource(1)))
	// Merge {0,1} but force the cross encoding to keep the two listed
	// subnode edges.
	dec := &mergeDecision{a: 0, b: 1, within: withinPlan{scenario: withinKeep}}
	dec.crosses = []crossPlan{{c: 2, keep: true, keepCost: 2}}
	m := st.commitMerge(st.getCtx(), dec, st.reserveIDs(1)[0])
	pr := newPruner(st)
	if pr.totalPN != 2 {
		t.Fatalf("pre-step3 p/n edges = %d, want 2", pr.totalPN)
	}
	if !pr.step3() {
		t.Fatal("step3 made no change")
	}
	// Superedge (M,2) replaces the two listed edges.
	if pr.totalPN != 1 {
		t.Fatalf("post-step3 p/n edges = %d, want 1", pr.totalPN)
	}
	if i, ok := pr.find(m, 2); !ok || pr.adj[m][i].net != 1 {
		t.Fatalf("expected superedge (M,2), adj = %v", pr.adj[m])
	}
	if err := pr.emit().Validate(g); err != nil {
		t.Fatal(err)
	}
}

// TestPruneRunStopsWhenStable: run must terminate early when a round
// changes nothing, and snapshots must be emitted for every substep.
func TestPruneRunStopsWhenStable(t *testing.T) {
	g := graph.Caveman(3, 5, 2, 3)
	st := newState(g, rand.New(rand.NewSource(2)))
	for t2 := 1; t2 <= 3; t2++ {
		st.runIteration(context.Background(), st.generateCandidates(t2, 100, 2), t2, 2, Threshold(t2, 3), 0)
	}
	pr := newPruner(st)
	var calls []int
	pr.run(context.Background(), 10, func(round, substep int, snap PruneSnapshot) {
		calls = append(calls, round*10+substep)
	})
	// Snapshot 0 plus 3 per executed round; far fewer than 31 calls
	// proves early termination.
	if len(calls) == 0 || len(calls) >= 31 {
		t.Fatalf("unexpected snapshot count %d", len(calls))
	}
	if calls[0] != 10 {
		t.Fatalf("first snapshot should be round 1 substep 0, got %d", calls[0])
	}
}

// TestPrunerCostMatchesEmittedModel: the pruner's maintained cost must
// equal the emitted summary's cost at every stage.
func TestPrunerCostMatchesEmittedModel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(40, 140, seed)
		st := newState(g, rand.New(rand.NewSource(seed)))
		for t2 := 1; t2 <= 4; t2++ {
			st.runIteration(context.Background(), st.generateCandidates(t2, 100, seed), t2, seed, Threshold(t2, 4), 0)
		}
		pr := newPruner(st)
		for i, step := range []func() bool{pr.step1, pr.step2, pr.step3} {
			step()
			if got := pr.emit().Cost(); got != pr.cost() {
				t.Fatalf("seed %d substep %d: maintained cost %d != emitted %d",
					seed, i+1, pr.cost(), got)
			}
		}
	}
}

// radixSort orders keys as a comparison sort does, whichever of the four
// 16-bit digits vary.
func TestRadixSortMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mask := range []uint64{0, 0xFFFF, 0xFFFF_0000_FFFF, 1<<63 | 0xF0F0, ^uint64(0)} {
		items := make([]pairItem, 2000)
		for i := range items {
			items[i] = pairItem{key: rng.Uint64() & mask, a: int32(i)}
		}
		got, _ := radixSort(slices.Clone(items), make([]pairItem, len(items)), make([]int32, 1<<16))
		if !slices.IsSortedFunc(got, func(x, y pairItem) int { return cmp.Compare(x.key, y.key) }) {
			t.Fatalf("mask %#x: not sorted", mask)
		}
		seen := make([]bool, len(items))
		for _, it := range got {
			if seen[it.a] || it.key != items[it.a].key {
				t.Fatalf("mask %#x: item %d lost or altered", mask, it.a)
			}
			seen[it.a] = true
		}
	}
}
