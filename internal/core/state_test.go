package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// bruteBlockCount counts subedges between the vertex sets of two
// supernodes directly from the graph.
func bruteBlockCount(st *state, g *graph.Graph, x, y int32) int64 {
	var cnt int64
	for _, u := range st.verts[x] {
		for _, w := range st.verts[y] {
			if g.HasEdge(u, w) {
				cnt++
			}
		}
	}
	return cnt
}

// linkEntry overwrites the entry that the adjacent roots x and y share
// with e, whose row must be x, and rebuilds both records.
func linkEntry(st *state, x, y int32, e crossEntry) {
	i, _ := search(st.nbrs[x], y)
	j, _ := search(st.nbrs[y], x)
	ei := st.nbrs[x][i].e
	st.ents[ei] = e
	st.nbrs[x][i] = st.record(x, y, ei)
	st.nbrs[y][j] = st.record(y, x, ei)
}

// setRec puts rec into the ascending list l, replacing its record
// towards rec.c if there is one: with delRec, the reference for swapIn.
func setRec(l []nbr, rec nbr) []nbr {
	i, ok := search(l, rec.c)
	if ok {
		l[i] = rec
		return l
	}
	return slices.Insert(l, i, rec)
}

// delRec removes root c from the ascending list l, if it is there.
func delRec(l []nbr, c int32) []nbr {
	if i, ok := search(l, c); ok {
		return slices.Delete(l, i, i+1)
	}
	return l
}

// mergeRandomPair merges one random feasible root pair, returning the
// new supernode id or -1.
func mergeRandomPair(st *state, rng *rand.Rand) int32 {
	ctx := st.getCtx()
	defer st.putCtx(ctx)
	roots := st.roots()
	for tries := 0; tries < 20; tries++ {
		a := roots[rng.Intn(len(roots))]
		b := roots[rng.Intn(len(roots))]
		if a == b {
			continue
		}
		if m := st.tryMerge(ctx, a, b, 0); m >= 0 {
			return m
		}
	}
	return -1
}

// checkAdjacency verifies the neighbour lists and what is kept in step
// with them: a live root's list is strictly ascending, names live roots
// only and shares each entry with the list of the root it names, and
// with no other record; each record's edge count, side vector and loose
// bit are what its entry's edges and counts give through the reference
// DP (sideCosts); a set within memo is what computeWithinPlan finds; a
// dead or unborn id has no list; and pcost is the root's within edges
// plus those of its entries. Each entry of the table is named by two
// records or by none, and then zeroed.
func checkAdjacency(t testing.TB, st *state) {
	t.Helper()
	var p bipProblem
	ctx := st.getCtx()
	defer st.putCtx(ctx)
	refs := make([]int8, len(st.ents))
	for r := int32(0); r < st.next; r++ {
		l := st.nbrs[r]
		if st.parent[r] != -1 {
			if l != nil {
				t.Fatalf("id %d is not a root but keeps a list of %d neighbours", r, len(l))
			}
			continue
		}
		want := int64(len(st.within[r]))
		for i, nb := range l {
			if i > 0 && l[i-1].c >= nb.c {
				t.Fatalf("list of root %d not strictly ascending: %d then %d", r, l[i-1].c, nb.c)
			}
			if nb.c == r || st.parent[nb.c] != -1 {
				t.Fatalf("list of root %d names %d, which is not another live root", r, nb.c)
			}
			if nb.e < 0 || int(nb.e) >= len(refs) {
				t.Fatalf("record of root %d towards %d names entry %d of %d", r, nb.c, nb.e, len(refs))
			}
			if refs[nb.e]++; refs[nb.e] > 2 {
				t.Fatalf("entry %d is named by more than two records", nb.e)
			}
			e := &st.ents[nb.e]
			if st.entry(nb.c, r) != e {
				t.Fatalf("entry (%d,%d) not shared symmetrically", r, nb.c)
			}
			if e.within != 0 {
				w := st.computeWithinPlan(ctx, r, nb.c, e)
				ctx.putProb(w.prob)
				if w.cost != int64(e.within) {
					t.Fatalf("entry (%d,%d) memoizes within cost %d, computeWithinPlan finds %d", r, nb.c, e.within, w.cost)
				}
			}
			st.fillSide(&p, r, nb.c, e.counts(r))
			side, n := narrowSide(p.sideCosts()), int64(len(e.edges))
			if loose := panelCost(&side, &sideVec{}) < n; int64(nb.n) != n || nb.side != side || nb.loose != loose {
				t.Fatalf("record of root %d towards %d holds %d edges, side %v, loose %v; its entry gives %d, %v, %v",
					r, nb.c, nb.n, nb.side, nb.loose, n, side, loose)
			}
			want += int64(len(e.edges))
		}
		if st.pcost[r] != want {
			t.Fatalf("pcost[%d] = %d, want %d", r, st.pcost[r], want)
		}
	}
	for i, n := range refs {
		if e := &st.ents[i]; n == 1 || n == 0 && (e.edges != nil || e.within != 0 || e.blocks != (blockCounts{}) || e.row != 0) {
			t.Fatalf("entry %d is named by %d records and not zeroed", i, n)
		}
	}
}

// checkBlockCounts verifies what a cross entry stores about its root
// pair. The block counts, asked from either endpoint, must equal the
// brute-force subedge count of every atom pair and sum to the
// brute-force count of the root pair, and an entry must exist exactly
// for adjacent pairs. And for every root pair (A, B) and every root C
// adjacent to A or B, panelCost over the two recorded (or zero-count)
// side vectors must be the cost solveBip finds for the (A∪B, C) panel.
func checkBlockCounts(t *testing.T, st *state, g *graph.Graph, when string) {
	t.Helper()
	roots := st.roots()
	var p bipProblem
	for _, x := range roots {
		xa := st.atomsOf(x)
		for _, y := range roots {
			if x == y {
				continue
			}
			e := st.entry(x, y)
			pair := bruteBlockCount(st, g, x, y)
			if (e != nil) != (pair > 0) {
				t.Fatalf("%s: entry (%d,%d) present=%v, but the pair has %d subedges", when, x, y, e != nil, pair)
			}
			bc := e.counts(x)
			if bc.total() != pair {
				t.Fatalf("%s: counts(%d) of (%d,%d) sum to %d, want %d", when, x, x, y, bc.total(), pair)
			}
			ya := st.atomsOf(y)
			for i := 0; i < numAtoms(xa); i++ {
				for j := 0; j < numAtoms(ya); j++ {
					if want := bruteBlockCount(st, g, xa[i], ya[j]); bc[i][j] != want {
						t.Fatalf("%s: counts(%d) of (%d,%d)[%d][%d] = %d, want %d", when, x, x, y, i, j, bc[i][j], want)
					}
				}
			}
		}
	}
	// sideOf is what root x contributes to a panel whose right root is c.
	sideOf := func(x, c int32) *sideVec {
		if i, ok := search(st.nbrs[x], c); ok {
			return &st.nbrs[x][i].side
		}
		return &zeroSide[numAtoms(st.atomsOf(x))-1][numAtoms(st.atomsOf(c))-1]
	}
	for i, a := range roots {
		for _, b := range roots[i+1:] {
			for _, c := range roots {
				eA, eB := st.entry(a, c), st.entry(b, c)
				if c == a || c == b || (eA == nil && eB == nil) {
					continue
				}
				st.fillCase2(&p, -1, a, b, c, eA.counts(a), eB.counts(b))
				if got, want := panelCost(sideOf(a, c), sideOf(b, c)), solveBip(&p).cost; got != want {
					t.Fatalf("%s: panelCost of (%d∪%d, %d) = %d, solveBip finds %d", when, a, b, c, got, want)
				}
			}
		}
	}
}

// What the cross entries store replaces the graph sweep: it must match a
// brute-force count, and the solver, at the initial state and after
// every merge.
func TestSweepMatchesBruteForce(t *testing.T) {
	g := graph.ErdosRenyi(40, 160, 3)
	rng := rand.New(rand.NewSource(1))
	st := newState(g, rng)
	checkAdjacency(t, st)
	checkBlockCounts(t, st, g, "newState")
	merged := 0
	for k := 0; k < 30; k++ {
		if mergeRandomPair(st, rng) >= 0 {
			merged++
		}
		checkAdjacency(t, st)
		checkBlockCounts(t, st, g, "after mergeRandomPair")
	}
	if merged < 25 {
		t.Fatalf("only %d merges happened", merged)
	}
}

func TestSelfGTMatchesBruteForce(t *testing.T) {
	g := graph.Caveman(3, 6, 4, 5)
	rng := rand.New(rand.NewSource(2))
	st := newState(g, rng)
	for k := 0; k < 12; k++ {
		mergeRandomPair(st, rng)
	}
	checkAdjacency(t, st)
	for _, r := range st.roots() {
		var want int64
		vs := st.verts[r]
		for i, u := range vs {
			for _, w := range vs[i+1:] {
				if g.HasEdge(u, w) {
					want++
				}
			}
		}
		if st.selfGT[r] != want {
			t.Fatalf("selfGT[%d] = %d, want %d", r, st.selfGT[r], want)
		}
	}
}

func TestLocatorsAfterMerges(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, 7)
	rng := rand.New(rand.NewSource(3))
	st := newState(g, rng)
	for k := 0; k < 8; k++ {
		mergeRandomPair(st, rng)
	}
	checkAdjacency(t, st)
	for v := int32(0); v < st.n; v++ {
		// rootOf must be a root containing v.
		r := st.rootOf[v]
		if st.parent[r] != -1 {
			t.Fatalf("rootOf[%d] = %d is not a root", v, r)
		}
		found := false
		for _, u := range st.verts[r] {
			if u == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d not in verts of its root %d", v, r)
		}
	}
}

func TestCrossEntriesSymmetric(t *testing.T) {
	g := graph.ErdosRenyi(30, 90, 11)
	rng := rand.New(rand.NewSource(4))
	st := newState(g, rng)
	for k := 0; k < 8; k++ {
		mergeRandomPair(st, rng)
	}
	checkAdjacency(t, st) // symmetry included
	for _, r := range st.roots() {
		for _, nb := range st.nbrs[r] {
			if gt := st.ents[nb.e].blocks.total(); gt <= 0 {
				t.Fatalf("entry (%d,%d) has gt=%d", r, nb.c, gt)
			}
		}
	}
}

func TestRootCostDecomposition(t *testing.T) {
	// The Eq. (8) denominator must be positive for adjacent roots and
	// the per-root cost must match Eq. (6)'s decomposition.
	g := graph.Caveman(3, 5, 2, 13)
	rng := rand.New(rand.NewSource(5))
	st := newState(g, rng)
	mergeRandomPair(st, rng)
	checkAdjacency(t, st)
	for _, r := range st.roots() {
		want := st.hCost[r] + int64(len(st.within[r]))
		for _, nb := range st.nbrs[r] {
			want += int64(len(st.ents[nb.e].edges))
		}
		if st.rootCost(r) != want {
			t.Fatalf("rootCost(%d) = %d, want %d", r, st.rootCost(r), want)
		}
	}
}

// The case the sweep cache used to cover: a whole candidate group
// processed by processGroup, whose commits fold the counts of merged
// roots into new entries many times over.
func TestSweepCacheAfterMergeConsistent(t *testing.T) {
	g := graph.ErdosRenyi(64, 256, 17)
	st := newState(g, rand.New(rand.NewSource(6)))
	group := st.roots()
	ids := st.reserveIDs(len(group) - 1)
	ctx := st.getCtx()
	merges := st.processGroup(group, ctx.groupRNG(7, 0, 0), ids, ctx, 0, 0)
	st.putCtx(ctx)
	if merges < 5 {
		t.Fatalf("processGroup made only %d merges", merges)
	}
	checkAdjacency(t, st)
	checkBlockCounts(t, st, g, "after processGroup")
}

func TestRootShinglesEqualNeighborhoodsMatch(t *testing.T) {
	// Twin vertices share closed neighborhoods and hence shingles.
	g := graph.BipartiteCores(1, 2, 5, 0, 3)
	st := newState(g, rand.New(rand.NewSource(1)))
	sh := st.rootShingles(99)
	if sh[0] != sh[1] {
		t.Fatalf("twin roots have different shingles: %d vs %d", sh[0], sh[1])
	}
}

func TestGenerateCandidatesCoverRoots(t *testing.T) {
	g := graph.Caveman(4, 8, 2, 19)
	st := newState(g, rand.New(rand.NewSource(2)))
	groups := st.generateCandidates(1, 10, 3)
	seen := map[int32]bool{}
	for _, grp := range groups {
		if len(grp) > 10 {
			t.Fatalf("group exceeds cap: %d", len(grp))
		}
		for _, r := range grp {
			if seen[r] {
				t.Fatalf("root %d in two groups", r)
			}
			seen[r] = true
		}
	}
	// Every clique's members should mostly land somewhere (singleton
	// groups are dropped, so just require substantial coverage).
	if len(seen) < g.NumNodes()/2 {
		t.Fatalf("only %d of %d roots grouped", len(seen), g.NumNodes())
	}
}

// Groups of one wave commit concurrently into the lists of the roots
// they share (striped locks): the lists must come out of every
// iteration of a parallel run intact. Meaningful with `go test -race`.
func TestAdjacencyAcrossParallelIterations(t *testing.T) {
	g := graph.HierCommunity(graph.HierParams{
		Levels: 2, Branching: 5, LeafSize: 7,
		Density: []float64{0.02, 0.2, 0.8},
	}, 29)
	st := newState(g, rand.New(rand.NewSource(5)))
	st.workers = 3
	merges := 0
	for it := 1; it <= 6; it++ {
		groups := st.generateCandidates(it, 25, 5)
		if it == 1 && len(groups) < 3 {
			t.Fatalf("only %d candidate groups: no wave to run concurrently", len(groups))
		}
		m, err := st.runIteration(context.Background(), groups, it, 5, Threshold(it, 6), 0)
		if err != nil {
			t.Fatal(err)
		}
		merges += m
		checkAdjacency(t, st)
	}
	if merges < 50 {
		t.Fatalf("only %d merges happened", merges)
	}
}

// A decision lists its crosses in ascending order of the neighbour, once
// each: every root adjacent to A or B other than the pair itself.
func TestEvaluateMergeCrossesAscending(t *testing.T) {
	st := allocState(t)
	ctx := st.getCtx()
	defer st.putCtx(ctx)
	mid := st.reserveIDs(1)[0]
	roots := st.roots()
	for i, a := range roots {
		for _, b := range roots[i+1:] {
			dec := st.evaluateMerge(ctx, a, b, mid, 0)
			if dec == nil {
				continue
			}
			want := 0
			for _, c := range roots {
				if c != a && c != b && (st.entry(a, c) != nil || st.entry(b, c) != nil) {
					want++
				}
			}
			if len(dec.crosses) != want {
				t.Fatalf("pair (%d,%d): %d crosses, want %d", a, b, len(dec.crosses), want)
			}
			for k, cp := range dec.crosses {
				if k > 0 && dec.crosses[k-1].c >= cp.c {
					t.Fatalf("pair (%d,%d): cross %d then %d", a, b, dec.crosses[k-1].c, cp.c)
				}
				if cp.c == a || cp.c == b || (st.entry(a, cp.c) == nil && st.entry(b, cp.c) == nil) {
					t.Fatalf("pair (%d,%d): cross %d is not a neighbour of the pair", a, b, cp.c)
				}
			}
			ctx.putDec(dec)
		}
	}
}

// swapIn must leave a neighbour's list as removing the records towards
// the merged roots and inserting the new root's record would: with a and
// b each present or absent (not both absent) and M landing before,
// between or after them.
func TestSwapInMatchesDelSet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seen := map[[3]bool]bool{}
	for trial := 0; trial < 4000; trial++ {
		var l []nbr
		for c := int32(0); c < 24; c++ {
			if rng.Intn(3) == 0 {
				l = append(l, nbr{c: c, e: c + 100})
			}
		}
		a, b, m := int32(rng.Intn(24)), int32(rng.Intn(24)), int32(rng.Intn(24))
		_, okA := search(l, a)
		_, okB := search(l, b)
		if _, okM := search(l, m); a == b || m == a || m == b || okM || (!okA && !okB) {
			continue
		}
		rec := nbr{c: m, e: -1}
		want := setRec(delRec(delRec(slices.Clone(l), a), b), rec)
		got := swapIn(slices.Clone(l), a, b, rec)
		if !slices.Equal(got, want) {
			t.Fatalf("swapIn(%v, %d, %d, %d) = %v, want %v", l, a, b, m, got, want)
		}
		seen[[3]bool{okA && okB, m < min(a, b), m > max(a, b)}] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d of the 6 cases drawn: %v", len(seen), seen)
	}
}

// newState's allocations do not grow with the graph: the initial entries
// live in one table and their one-edge lists in one backing array. An
// entry stays 64 bytes and a neighbour record 32.
func TestNewStateAllocs(t *testing.T) {
	if s, r := unsafe.Sizeof(crossEntry{}), unsafe.Sizeof(nbr{}); s != 64 || r != 32 {
		t.Fatalf("crossEntry is %d bytes, nbr %d; want 64 and 32", s, r)
	}
	rng := rand.New(rand.NewSource(1))
	var base float64
	for i, g := range []*graph.Graph{graph.ErdosRenyi(300, 1200, 1), graph.ErdosRenyi(3000, 20000, 2)} {
		allocs := testing.AllocsPerRun(5, func() { newState(g, rng) })
		if i == 0 {
			base = allocs
		} else if allocs != base {
			t.Fatalf("newState makes %v allocations on %d edges, %v on the smaller graph", allocs, g.NumEdges(), base)
		}
	}
}
