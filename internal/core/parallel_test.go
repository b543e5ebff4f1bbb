package core

import (
	"context"
	"math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/minhash"
)

// The parallel candidate-group pipeline must be bit-identical to the
// serial run: groups own deterministic RNGs and reserved id blocks,
// non-conflicting groups commute, and conflicting groups keep their
// serial order across waves.
func TestParallelMatchesSerial(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Caveman(6, 8, 4, 3),
		graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 4, LeafSize: 6,
			Density: []float64{0.01, 0.15, 0.8},
		}, 5),
		graph.ErdosRenyi(120, 400, 7),
	}
	for gi, g := range graphs {
		serial, sStats := Summarize(g, Config{T: 6, Seed: 11})
		parallel, pStats := Summarize(g, Config{T: 6, Seed: 11, Workers: 4})
		if serial.Cost() != parallel.Cost() {
			t.Fatalf("graph %d: serial cost %d != parallel cost %d",
				gi, serial.Cost(), parallel.Cost())
		}
		if sStats.Merges != pStats.Merges {
			t.Fatalf("graph %d: serial merges %d != parallel merges %d",
				gi, sStats.Merges, pStats.Merges)
		}
		if serial.NumSupernodes() != parallel.NumSupernodes() {
			t.Fatalf("graph %d: supernode counts differ", gi)
		}
		if err := parallel.Validate(g); err != nil {
			t.Fatalf("graph %d: parallel run not lossless: %v", gi, err)
		}
	}
}

// Determinism across the whole worker-count axis: every worker count
// must produce byte-identical summary costs, merge counts, supernode
// counts and per-iteration cost traces for a fixed seed.
func TestGroupPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	graphs := []*graph.Graph{
		graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 5, LeafSize: 7,
			Density: []float64{0.02, 0.2, 0.8},
		}, 29),
		graph.BarabasiAlbert(200, 3, 31),
	}
	for gi, g := range graphs {
		for _, seed := range []int64{1, 42} {
			var refCosts []int64
			var refFinal int64
			var refMerges, refSupernodes int
			for wi, workers := range []int{1, 2, 3, 4, 8} {
				var costs []int64
				sum, stats := Summarize(g, Config{
					T: 6, Seed: seed, Workers: workers,
					OnIteration: func(t int, c int64) { costs = append(costs, c) },
				})
				if wi == 0 {
					refCosts = costs
					refFinal = sum.Cost()
					refMerges = stats.Merges
					refSupernodes = sum.NumSupernodes()
					continue
				}
				if sum.Cost() != refFinal || stats.Merges != refMerges ||
					sum.NumSupernodes() != refSupernodes {
					t.Fatalf("graph %d seed %d workers %d: cost/merges/supernodes %d/%d/%d, want %d/%d/%d",
						gi, seed, workers, sum.Cost(), stats.Merges, sum.NumSupernodes(),
						refFinal, refMerges, refSupernodes)
				}
				for i := range refCosts {
					if costs[i] != refCosts[i] {
						t.Fatalf("graph %d seed %d workers %d: iteration %d cost %d, want %d",
							gi, seed, workers, i+1, costs[i], refCosts[i])
					}
				}
			}
		}
	}
}

// Run a parallel summarization under the race detector's eye (the test
// is meaningful with `go test -race`).
func TestParallelNoRaces(t *testing.T) {
	g := graph.Caveman(8, 10, 6, 9)
	sum, _ := Summarize(g, Config{T: 8, Seed: 13, Workers: runtime.NumCPU()})
	if err := sum.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// allocState builds a mid-run merge state — at least 25 merges in — for
// the allocation tests and TestScoreMatchesPlan.
func allocState(tb testing.TB) *state {
	g := graph.HierCommunity(graph.HierParams{
		Levels: 2, Branching: 6, LeafSize: 8,
		Density: []float64{0.01, 0.15, 0.8},
	}, 7)
	rng := rand.New(rand.NewSource(1))
	st := newState(g, rng)
	merged := 0
	for k := 0; k < 60; k++ {
		if mergeRandomPair(st, rng) >= 0 {
			merged++
		}
	}
	if merged < 25 {
		tb.Fatalf("allocState made only %d merges", merged)
	}
	return st
}

// The planner recycles decisions, panel problems and scratch through
// the context, so steady-state plans allocate nothing.
func TestEvaluateMergeAllocationFree(t *testing.T) {
	st := allocState(t)
	ctx := st.getCtx()
	roots := st.roots()
	mid := st.reserveIDs(1)[0]
	// Warm the decision/problem free-lists.
	for j := 0; j+1 < len(roots); j++ {
		ctx.putDec(st.evaluateMerge(ctx, roots[j], roots[j+1], mid, 0))
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		j := i % (len(roots) - 1)
		ctx.putDec(st.evaluateMerge(ctx, roots[j], roots[j+1], mid, 0))
		i++
	})
	if avg > 0.5 {
		t.Fatalf("evaluateMerge allocates %.2f objects per op, want ~0", avg)
	}
	st.releaseIDs([]int32{mid})
	st.putCtx(ctx)
}

// Scoring a partner builds no decision and no Case-2 problem; the only
// transient it touches, the within plan's problem, is pooled.
func TestScoreMergeAllocationFree(t *testing.T) {
	st := allocState(t)
	ctx := st.getCtx()
	roots := st.roots()
	ctx.stampPop(roots[0])
	for _, b := range roots[1:] {
		st.scoreMerge(ctx, b, 0, 0)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		st.scoreMerge(ctx, roots[1+i%(len(roots)-1)], 0, 0)
		i++
	})
	if avg > 0.5 {
		t.Fatalf("scoreMerge allocates %.2f objects per op, want ~0", avg)
	}
	st.putCtx(ctx)
}

// A context reseeds one generator per group: the stream must be the one
// a fresh PCG of the same two words gives, whatever the context drew
// before, and a group allocates nothing.
func TestGroupRNGReseedMatchesFresh(t *testing.T) {
	ctx := (&state{}).getCtx()
	for gi := 0; gi < 20; gi++ {
		pos := uint64(3)<<32 | uint64(gi)
		fresh := randv2.New(randv2.NewPCG(minhash.Hash64(uint64(7)^0x5851F42D4C957F2D, pos), pos))
		rng := ctx.groupRNG(7, 3, gi)
		for k := 0; k <= gi; k++ { // a different number of draws per group
			if got, want := rng.IntN(1000), fresh.IntN(1000); got != want {
				t.Fatalf("group %d draw %d: reseeded generator gives %d, fresh one %d", gi, k, got, want)
			}
		}
	}
	gi := 0
	if avg := testing.AllocsPerRun(50, func() { ctx.groupRNG(7, 3, gi); gi++ }); avg > 0 {
		t.Fatalf("groupRNG allocates %.2f objects per group, want 0", avg)
	}
}

// A group of two roots takes one draw and a group of three takes two:
// the first draw after a reseed is the group's whole behaviour, so over
// consecutive positions it must be uniform and not follow its
// predecessor's.
func TestGroupRNGFirstDrawUniform(t *testing.T) {
	ctx := (&state{}).getCtx()
	// The limits are the 99.99th percentiles of chi-square with n*n-1 = 3
	// and 8 degrees of freedom.
	for _, tc := range []struct {
		n     int
		limit float64
	}{{2, 21.1}, {3, 31.8}} {
		const draws = 4096
		n := tc.n
		counts := make([]float64, n*n) // (previous position's draw, this one's)
		prev := 0
		for k := 0; k <= draws; k++ {
			d := ctx.groupRNG(1, 1+k/1024, k%1024).IntN(n)
			if k > 0 {
				counts[prev*n+d]++
			}
			prev = d
		}
		chi2, expect := 0.0, float64(draws)/float64(n*n)
		for _, c := range counts {
			chi2 += (c - expect) * (c - expect) / expect
		}
		if chi2 > tc.limit {
			t.Fatalf("IntN(%d) first draws over %d consecutive groups: chi-square %.1f over pairs %v, limit %.1f", n, draws, chi2, counts, tc.limit)
		}
	}
}

// The wave planner planWaves replaced, kept verbatim as the reference of
// TestPlanWavesMatchesReference: a conflict graph, then a status machine
// re-walking the remaining groups once per wave.

// groupConflicts builds, for each group, the sorted set of
// earlier-or-later groups it shares a cross entry with.
func (st *state) groupConflicts(groups [][]int32) [][]int32 {
	groupOf := make([]int32, st.next)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, grp := range groups {
		for _, r := range grp {
			groupOf[r] = int32(gi)
		}
	}
	// seen[gj] stamps the last group index that recorded a conflict with
	// gj; group indices are unique per outer pass, so no reset is needed.
	seen := make([]int32, len(groups))
	for i := range seen {
		seen[i] = -1
	}
	conflicts := make([][]int32, len(groups))
	for gi, grp := range groups {
		for _, r := range grp {
			for _, nb := range st.nbrs[r] {
				gj := groupOf[nb.c]
				if gj < 0 || gj == int32(gi) || seen[gj] == int32(gi) {
					continue
				}
				seen[gj] = int32(gi)
				conflicts[gi] = append(conflicts[gi], gj)
			}
		}
	}
	// Symmetrize: a conflict discovered from either side blocks both.
	for gi, cs := range conflicts {
		for _, gj := range cs {
			dup := false
			for _, gk := range conflicts[gj] {
				if gk == int32(gi) {
					dup = true
					break
				}
			}
			if !dup {
				conflicts[gj] = append(conflicts[gj], int32(gi))
			}
		}
	}
	return conflicts
}

// buildWaves partitions group indices into waves of pairwise
// non-conflicting groups. A group is deferred when it conflicts with a
// group already placed in the current wave OR with an earlier group
// that was itself deferred — the latter keeps every conflicting pair in
// its original relative order, which makes the parallel schedule
// equivalent to processing groups 0..k-1 serially.
func buildWaves(conflicts [][]int32, k int) [][]int32 {
	const (
		stateNone = iota
		stateWave
		stateDeferred
	)
	waves := make([][]int32, 0, 4)
	remaining := make([]int32, k)
	for i := range remaining {
		remaining[i] = int32(i)
	}
	status := make([]int8, k)
	for len(remaining) > 0 {
		wave := make([]int32, 0, len(remaining))
		deferred := remaining[:0]
		for _, gi := range remaining {
			ok := true
			for _, gj := range conflicts[gi] {
				if s := status[gj]; s == stateWave || s == stateDeferred {
					ok = false
					break
				}
			}
			if ok {
				status[gi] = stateWave
				wave = append(wave, gi)
			} else {
				status[gi] = stateDeferred
				deferred = append(deferred, gi)
			}
		}
		for _, gi := range wave {
			status[gi] = stateNone
		}
		for _, gi := range deferred {
			status[gi] = stateNone
		}
		waves = append(waves, wave)
		remaining = deferred
	}
	return waves
}

// planWaves must give the partition the two-step planner gave, wave for
// wave and index for index, on mid-run states of every shape — many
// groups, one group, none — and the partition must be valid on its own
// terms: no two groups of a wave share a cross entry, and a conflicting
// pair keeps its index order across waves.
func TestPlanWavesMatchesReference(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		maxGroup int
	}{
		{"hier", graph.HierCommunity(graph.HierParams{
			Levels: 2, Branching: 5, LeafSize: 7,
			Density: []float64{0.02, 0.2, 0.8},
		}, 29), 25},
		{"skew", graph.BarabasiAlbert(600, 3, 31), 500},
		{"one group", graph.Caveman(4, 8, 2, 19), 500},
		{"edgeless", graph.FromEdges(40, nil), 10},
	}
	states, multiWave := 0, 0
	for _, tc := range cases {
		st := newState(tc.g, rand.New(rand.NewSource(3)))
		st.workers = 2
		for it := 1; it <= 10; it++ {
			groups := st.generateCandidates(it, tc.maxGroup, 3)
			waves := st.planWaves(groups)
			ref := buildWaves(st.groupConflicts(groups), len(groups))
			if !reflect.DeepEqual(waves, ref) {
				t.Fatalf("%s iteration %d: planWaves = %v, reference %v", tc.name, it, waves, ref)
			}
			checkWaves(t, st, groups, waves)
			states++
			if len(waves) > 1 {
				multiWave++
			}
			if _, err := st.runIteration(context.Background(), groups, it, 3, Threshold(it, 10), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if states < 30 || multiWave < 10 {
		t.Fatalf("compared %d states, %d of them with more than one wave", states, multiWave)
	}
}

// checkWaves asserts the scheduling property directly from the
// neighbour lists: the waves partition the groups, and every pair of
// groups sharing a cross entry sits in different waves, the
// lower-indexed group in the earlier one.
func checkWaves(t *testing.T, st *state, groups [][]int32, waves [][]int32) {
	t.Helper()
	waveOf := make([]int, len(groups))
	for i := range waveOf {
		waveOf[i] = -1
	}
	for w, wave := range waves {
		for _, gi := range wave {
			if waveOf[gi] != -1 {
				t.Fatalf("group %d is in waves %d and %d", gi, waveOf[gi], w)
			}
			waveOf[gi] = w
		}
	}
	groupOf := map[int32]int{}
	for gi, grp := range groups {
		if waveOf[gi] == -1 {
			t.Fatalf("group %d is in no wave", gi)
		}
		for _, r := range grp {
			groupOf[r] = gi
		}
	}
	for gi, grp := range groups {
		for _, r := range grp {
			for _, nb := range st.nbrs[r] {
				gj, ok := groupOf[nb.c]
				if !ok || gj == gi {
					continue
				}
				if (gi < gj) != (waveOf[gi] < waveOf[gj]) {
					t.Fatalf("groups %d and %d share the entry (%d,%d) and sit in waves %d and %d",
						gi, gj, r, nb.c, waveOf[gi], waveOf[gj])
				}
			}
		}
	}
}

// BenchmarkEvaluateMerge measures planning one merge on a mid-run state
// (once per committed merge).
func BenchmarkEvaluateMerge(b *testing.B) {
	st := allocState(b)
	ctx := st.getCtx()
	roots := st.roots()
	mid := st.reserveIDs(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (len(roots) - 1)
		ctx.putDec(st.evaluateMerge(ctx, roots[j], roots[j+1], mid, 0))
	}
}

// BenchmarkScoreMerge measures scoring one partner of a popped root on
// the same state (once per candidate of every pop). After the first pass
// over the roots an adjacent partner's within-plan cost comes from its
// entry's memo, as when a later pop re-scores an unchanged pair.
func BenchmarkScoreMerge(b *testing.B) {
	st := allocState(b)
	ctx := st.getCtx()
	roots := st.roots()
	ctx.stampPop(roots[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.scoreMerge(ctx, roots[1+i%(len(roots)-1)], 0, 0)
	}
}
