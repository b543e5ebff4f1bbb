package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// buildProblem constructs a standalone bipProblem for optimizer unit
// tests: left atoms with given sizes under optional groups, right atoms
// under a top, with explicit block counts.
func buildProblem(leftSizes []int64, groupOf []int8, rightSizes []int64, cnt [][]int64, offset int8) *bipProblem {
	p := &bipProblem{leftTop: 100, rightTop: 200, offset: offset}
	p.groups = [2]int32{-1, -1}
	p.nAtoms = len(leftSizes)
	for i, s := range leftSizes {
		p.atoms[i] = int32(10 + i)
		p.leftSizes[i] = s
		p.groupOf[i] = groupOf[i]
		p.rowOK[i] = true
		if groupOf[i] >= 0 {
			p.groups[groupOf[i]] = int32(50 + groupOf[i])
		}
	}
	p.nRight = len(rightSizes)
	for j, s := range rightSizes {
		p.rightAtoms[j] = int32(20 + j)
		p.rightSizes[j] = s
	}
	p.colsOK = p.nRight > 1
	for i := range cnt {
		for j := range cnt[i] {
			p.cnt[i][j] = cnt[i][j]
		}
	}
	return p
}

func TestSolveBipEmptyBlocksCostZero(t *testing.T) {
	p := buildProblem([]int64{3, 3}, []int8{-1, -1}, []int64{4}, [][]int64{{0}, {0}}, 0)
	if plan := solveBip(p); plan.cost != 0 {
		t.Fatalf("cost = %d, want 0", plan.cost)
	}
}

func TestSolveBipCompleteBipartiteOneEdge(t *testing.T) {
	// All blocks full: a single top edge suffices.
	p := buildProblem([]int64{3, 3}, []int8{-1, -1}, []int64{4, 2},
		[][]int64{{12, 6}, {12, 6}}, 0)
	plan := solveBip(p)
	if plan.cost != 1 {
		t.Fatalf("cost = %d, want 1 (single top p-edge)", plan.cost)
	}
	if plan.top != 1 {
		t.Fatalf("top = %d, want +1", plan.top)
	}
}

func TestSolveBipFullMinusOneBlock(t *testing.T) {
	// Three of four blocks full, one empty: top p-edge + one n-edge.
	p := buildProblem([]int64{3, 3}, []int8{-1, -1}, []int64{4, 2},
		[][]int64{{12, 6}, {12, 0}}, 0)
	plan := solveBip(p)
	if plan.cost != 2 {
		t.Fatalf("cost = %d, want 2", plan.cost)
	}
}

func TestSolveBipSingleFullBlock(t *testing.T) {
	// Only one block full: a single atom-level edge.
	p := buildProblem([]int64{3, 3}, []int8{-1, -1}, []int64{4, 2},
		[][]int64{{12, 0}, {0, 0}}, 0)
	plan := solveBip(p)
	if plan.cost != 1 {
		t.Fatalf("cost = %d, want 1", plan.cost)
	}
}

func TestSolveBipMixedBlockFallsBackToListing(t *testing.T) {
	// One mixed block with 2 of 12 pairs present: listing the 2 edges
	// beats the superedge + 10 corrections.
	p := buildProblem([]int64{3}, []int8{-1}, []int64{4}, [][]int64{{2}}, 0)
	plan := solveBip(p)
	if plan.cost != 2 {
		t.Fatalf("cost = %d, want 2 (list both subedges)", plan.cost)
	}
	// Dense mixed block: 11 of 12 pairs -> superedge + 1 n-correction.
	p2 := buildProblem([]int64{3}, []int8{-1}, []int64{4}, [][]int64{{11}}, 0)
	if plan := solveBip(p2); plan.cost != 2 {
		t.Fatalf("dense cost = %d, want 2 (p-edge + 1 n-correction)", plan.cost)
	}
}

func TestSolveBipGroupLevelCover(t *testing.T) {
	// Atoms 0,1 in group 0 fully connected to the right; atoms 2,3 in
	// group 1 not connected: one (group0, top) edge.
	p := buildProblem([]int64{2, 2, 2, 2}, []int8{0, 0, 1, 1}, []int64{3, 3},
		[][]int64{{6, 6}, {6, 6}, {0, 0}, {0, 0}}, 0)
	plan := solveBip(p)
	if plan.cost != 1 {
		t.Fatalf("cost = %d, want 1 (group-level edge)", plan.cost)
	}
	if plan.groupVals[0] != 1 || plan.groupVals[1] != 0 {
		t.Fatalf("groupVals = %v, want [1 0]", plan.groupVals)
	}
}

func TestSolveBipOffsetScenario(t *testing.T) {
	// With offset 1 (the (M,M) self-loop scenario), empty blocks need a
	// compensating -1; full blocks are free.
	p := buildProblem([]int64{2, 2}, []int8{-1, -1}, []int64{3},
		[][]int64{{6}, {0}}, 1)
	plan := solveBip(p)
	if plan.cost != 1 {
		t.Fatalf("cost = %d, want 1 (one n-edge for the empty row)", plan.cost)
	}
}

// TestDisjointLoopPlan: for a pair with no subedge between them, the
// (M,M) loop's panel is solved by disjointLoopPlan, whatever the atom
// counts and sizes, so computeWithinPlan may skip the solve. A
// one-atom side is a leaf (its atom is its top: no row slot) or, in
// case pruning leaves one, a supernode with a single child.
func TestDisjointLoopPlan(t *testing.T) {
	for na := 1; na <= 2; na++ {
		for nb := 1; nb <= 2; nb++ {
			for s := int64(1); s <= 40; s++ {
				left, right := make([]int64, na), make([]int64, nb)
				for i := range left {
					left[i] = s + int64(i)
				}
				for j := range right {
					right[j] = 1 + (s*int64(j+3))%17
				}
				for _, rowOK := range []bool{true, na > 1} {
					p := buildProblem(left, []int8{-1, -1}, right, nil, 1)
					for i := 0; i < na; i++ {
						p.rowOK[i] = rowOK
					}
					if plan := solveBip(p); plan != disjointLoopPlan {
						t.Fatalf("atoms %d×%d, sizes %v×%v, rows %v: solveBip gives %+v, want %+v",
							na, nb, left, right, rowOK, plan, disjointLoopPlan)
					}
				}
			}
		}
	}
}

func TestSolveBipColumnCover(t *testing.T) {
	// Right atom 0 fully connected to everything, right atom 1 not:
	// one (leftTop, rightAtom0) column edge.
	p := buildProblem([]int64{2, 2}, []int8{-1, -1}, []int64{3, 3},
		[][]int64{{6, 0}, {6, 0}}, 0)
	plan := solveBip(p)
	if plan.cost != 1 {
		t.Fatalf("cost = %d, want 1 (column edge)", plan.cost)
	}
}

func TestRawBlockCostTable(t *testing.T) {
	cases := []struct {
		base  int
		gt, T int64
		want  int64
	}{
		{0, 0, 10, 0},    // empty, uncovered
		{0, 10, 10, 1},   // full, uncovered -> one p-edge
		{1, 10, 10, 0},   // full, covered
		{1, 0, 10, 1},    // empty, covered -> one n-edge
		{0, 3, 10, 3},    // sparse mixed -> list 3
		{0, 9, 10, 2},    // dense mixed -> p-edge + 1 correction
		{1, 9, 10, 1},    // dense mixed, covered -> 1 n-correction
		{2, 10, 10, 1},   // over-covered full -> one n-edge brings to 1
		{-1, 10, 10, 11}, // under-covered full: atom edge to 0, then list all 10
	}
	for _, c := range cases {
		if got := blockTable(c.gt, c.T)[c.base-tabMin]; got != c.want {
			t.Fatalf("blockTable(%d, %d)[%d] = %d, want %d", c.gt, c.T, c.base, got, c.want)
		}
	}
}

// The decomposition scoring rests on: for any Case-2 problem, the
// cheapest ambient vector plus the side vectors of its two left roots,
// each computed from that root's half of the problem alone, is
// solveBip's optimum. A root without subedges to the right root
// contributes zeroSide whatever the sizes of its atoms.
func TestPanelCostMatchesSolveBip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		rightSizes := make([]int64, 1+rng.Intn(2))
		for j := range rightSizes {
			rightSizes[j] = 1 + rng.Int63n(5)
		}
		var leftSizes []int64
		var groupOf []int8
		var cnt [][]int64
		var sides [2]sideVec
		for s := int8(0); s < 2; s++ {
			na := 1 + rng.Intn(2)
			grp := int8(-1)
			if na > 1 {
				grp = s
			}
			empty := rng.Intn(4) == 0 // this root is not adjacent to the right root
			lo := len(leftSizes)
			for i := 0; i < na; i++ {
				size := 1 + rng.Int63n(5)
				if rng.Intn(8) == 0 {
					size = 1000
				}
				row := make([]int64, len(rightSizes))
				for j := range row {
					switch total := size * rightSizes[j]; {
					case empty || rng.Intn(3) == 0:
					case rng.Intn(2) == 0:
						row[j] = total
					default:
						row[j] = rng.Int63n(total + 1)
					}
				}
				leftSizes, groupOf, cnt = append(leftSizes, size), append(groupOf, grp), append(cnt, row)
			}
			sides[s] = narrowSide(buildProblem(leftSizes[lo:], groupOf[lo:], rightSizes, cnt[lo:], 0).sideCosts())
			if zero := zeroSide[na-1][len(rightSizes)-1]; empty && sides[s] != zero {
				t.Fatalf("trial %d: side vector of an empty root with sizes %v x %v is %v, zeroSide says %v",
					trial, leftSizes[lo:], rightSizes, sides[s], zero)
			}
		}
		p := buildProblem(leftSizes, groupOf, rightSizes, cnt, 0)
		if got, want := panelCost(&sides[0], &sides[1]), solveBip(p).cost; got != want {
			t.Fatalf("trial %d: panelCost %d, solveBip %d for sizes %v x %v groups %v counts %v",
				trial, got, want, leftSizes, rightSizes, groupOf, cnt)
		}
	}
}

// checkSideKernel compares sideKernel with the reference DP on a left
// root with atom sizes ls[:nl] against a right root with atom sizes
// rs[:nr] and block counts bc: the kernel must give the DP's exact
// vector narrowed to int32, and every slot the right root has must be at
// most the pair's subedges + 2, the bound that keeps the narrowing exact
// for any pair an int32 edge count can hold.
func checkSideKernel(t testing.TB, bc blockCounts, ls, rs [2]int64, nl, nr int) {
	t.Helper()
	groupOf := []int8{-1}
	if nl == 2 {
		groupOf = []int8{0, 0}
	}
	cnt := make([][]int64, nl)
	for i := range cnt {
		cnt[i] = bc[i][:nr]
	}
	exact := buildProblem(ls[:nl], groupOf, rs[:nr], cnt, 0).sideCosts()
	got := sideKernel(&bc, &ls, &rs, nl, nr)
	for v, c := range exact {
		if v < 1<<nr && c > bc.total()+2 {
			t.Fatalf("sizes %v x %v counts %v: slot %d costs %d, above subedges + 2", ls, rs, bc, v, c)
		}
		if want := min(c, int64(sideInf)); int64(got[v]) != want {
			t.Fatalf("sizes %v x %v counts %v: kernel %v, DP %v narrows to %d at slot %d", ls, rs, bc, got, exact, want, v)
		}
	}
}

// The kernel against the DP for every (left atoms, right atoms) in
// {1,2}^2: every count of every block for atoms of sizes 1 and 2, and
// for atoms whose size products exceed 2^31 the empty, single, half,
// all-but-one and full count of every block, so that slots past int32
// saturate.
func TestSideKernelMatchesSideCosts(t *testing.T) {
	for nl := 1; nl <= 2; nl++ {
		for nr := 1; nr <= 2; nr++ {
			var bc blockCounts
			var ls, rs [2]int64
			// each sets the counts of blocks k.. to every combination of
			// counts(i, j, total) and checks each.
			var each func(k int, counts func(total int64) []int64)
			each = func(k int, counts func(total int64) []int64) {
				if k == nl*nr {
					checkSideKernel(t, bc, ls, rs, nl, nr)
					return
				}
				i, j := k/nr, k%nr
				for _, c := range counts(ls[i] * rs[j]) {
					bc[i][j] = c
					each(k+1, counts)
				}
				bc[i][j] = 0
			}
			all := func(total int64) (cs []int64) {
				for c := int64(0); c <= total; c++ {
					cs = append(cs, c)
				}
				return cs
			}
			for sizes := 0; sizes < 1<<(nl+nr); sizes++ {
				ls, rs = [2]int64{}, [2]int64{}
				for i := 0; i < nl; i++ {
					ls[i] = 1 + int64(sizes>>i&1)
				}
				for j := 0; j < nr; j++ {
					rs[j] = 1 + int64(sizes>>(nl+j)&1)
				}
				each(0, all)
			}
			ls, rs = [2]int64{}, [2]int64{}
			for i := 0; i < nl; i++ {
				ls[i] = 1<<16 + 3 + int64(i)
			}
			for j := 0; j < nr; j++ {
				rs[j] = 1<<17 - 1 - int64(j)
			}
			each(0, func(total int64) []int64 { return []int64{0, 1, total / 2, total - 1, total} })
		}
	}
}

func TestListCostOutOfRange(t *testing.T) {
	if listCost(2, 5, 10) < inf || listCost(-1, 5, 10) < inf {
		t.Fatal("nets outside {0,1} must be infeasible")
	}
}

func TestBlockMinValues(t *testing.T) {
	if blockMin(0, 10) != 0 || blockMin(10, 10) != 0 {
		t.Fatal("uniform blocks have zero minimum")
	}
	if blockMin(3, 10) != 3 || blockMin(8, 10) != 2 {
		t.Fatal("mixed block minima wrong")
	}
}

// Materialized plans must exactly encode the panel they were solved
// for. We verify this end to end through random merges: after every
// commit, the maintained encoding still decodes to the input graph.
func TestMaterializeExactnessUnderRandomMerges(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(30, 120, seed)
		st := newState(g, rand.New(rand.NewSource(seed)))
		ctx := st.getCtx()
		// Perform random valid merges regardless of saving.
		for k := 0; k < 12; k++ {
			roots := st.roots()
			if len(roots) < 2 {
				break
			}
			a := roots[rng.Intn(len(roots))]
			b := roots[rng.Intn(len(roots))]
			if a == b {
				continue
			}
			if st.tryMerge(ctx, a, b, 0) < 0 {
				continue
			}
			pr := newPruner(st)
			sum := pr.emit()
			if err := sum.Validate(g); err != nil {
				t.Fatalf("seed %d after %d merges: %v", seed, k+1, err)
			}
		}
	}
}
