package core

// This file implements the local encoding search of Sect. III-B3: when
// two root supernodes A and B are (temporarily) merged into M, SLUGGER
// re-encodes (Case 1) the adjacency between A and B inside the panel
// {M, A, B, ch(A), ch(B)} and (Case 2) the adjacency between tree(M)
// and tree(C) inside the panel {M, A, B, ch(A), ch(B)} x {C, ch(C)},
// for every root C with a p/n-edge to A or B.
//
// Both cases reduce to the same optimization: given left "atoms"
// (children of A and B, or A/B themselves when they are leaves)
// arranged laminarly under {A,B} under M, right atoms under C, and the
// ground-truth subedge count of every atom block, choose signed net
// values on panel supernode pairs plus optional subnode-level
// correction lists so that every block is encoded exactly with
// per-pair net counts in {0,1}, minimizing the number of edges.
//
// The paper performs a memoized exhaustive search over the constant
// number of panel encodings; we solve the same family exactly with a
// small dynamic program: conditioning on the (top, column) nets makes
// the rows independent, so the search is
//   3 (top) x 3^q (columns) x per-group 3 (group row) x per-atom 3 (row)
// over precomputed per-block cost tables. A per-problem lower bound
// (the sum of each block's best achievable cost) lets callers skip the
// enumeration entirely whenever keeping the current encoding is
// provably at least as good — the analogue of the paper's memoized
// fast path. The "keep" candidate is always compared, so a rewrite
// never increases the encoding cost.
//
// The same independence goes one step further in Case 2: given the
// ambient vector, the rows of A and the rows of B do not interact, and
// what each root's rows cost depends on its pair with C alone. That
// part (sideKernel, checked against the program's own row step in
// sideCosts) is computed once per neighbour record, and the cost of a
// panel — all that scoring a candidate merge and deciding keep need —
// is a minimum over four sums (panelCost); solveBip runs only where the
// nets of a winning rewrite are wanted.

const inf = int64(1) << 50

const (
	maxAtoms = 4 // left atoms: children of A plus children of B
	maxRight = 2 // right atoms: children of C (or C itself)
	// tab indexes block net values from tabMin to tabMax.
	tabMin = -2
	tabMax = 3
	tabLen = tabMax - tabMin + 1
)

// bipProblem is one instance of the panel optimization. It is a value
// type with fixed-size storage so that trial evaluations allocate
// nothing; plans copy the problem only when a rewrite is selected.
type bipProblem struct {
	leftTop   int32
	groups    [2]int32 // mid-level supernodes (A,B) in Case 2; -1 when absent
	nAtoms    int
	atoms     [maxAtoms]int32
	groupOf   [maxAtoms]int8 // 0/1 into groups, or -1
	rowOK     [maxAtoms]bool // whether the (atom, rightTop) slot is distinct from top
	leftSizes [maxAtoms]int64

	rightTop   int32
	nRight     int
	rightAtoms [maxRight]int32
	rightSizes [maxRight]int64
	colsOK     bool // whether (leftTop, rightAtom) slots are distinct from top

	cnt    [maxAtoms][maxRight]int64 // ground-truth block counts
	offset int8                      // ambient net already covering every block

	// tab[i][j][s-tabMin] is the minimal cost of finishing block (i,j)
	// when all coarser edges contribute net s; filled by finalize.
	tab [maxAtoms][maxRight][tabLen]int64
}

// bipPlan records the chosen coarse nets; atom-level edges and subnode
// correction lists are re-derived deterministically at materialization.
type bipPlan struct {
	cost      int64
	top       int8
	cols      [maxRight]int8
	groupVals [2]int8
	rows      [maxAtoms]int8
}

// listCost returns the subnode-correction cost of a block whose pairs
// all carry ambient net s: 0 or a full listing, or inf when s is
// outside {0,1} (which would violate the per-pair restriction).
func listCost(s int, gt, total int64) int64 {
	switch s {
	case 0:
		return gt
	case 1:
		return total - gt
	default:
		return inf
	}
}

// blockTable returns the minimal cost of finishing one block at every
// ambient net tabMin..tabMax contributed by all coarser edges, optimized
// over the atom-level edge a in {-1,0,+1} and the subnode listing — the
// closed form of min over a of |a| + listCost(s+a): only nets in {0,1}
// may be listed, so s = -1 and s = 2 force the atom edge and the
// extremes are infeasible.
func blockTable(gt, total int64) [tabLen]int64 {
	return [tabLen]int64{
		inf,                 // s = -2
		1 + gt,              // s = -1: a = +1, list the subedges
		min(gt, 1+total-gt), // s = 0: list, or a = +1 and carve
		min(total-gt, 1+gt), // s = 1: carve, or a = -1 and list
		1 + total - gt,      // s = 2: a = -1, carve the non-edges
		inf,                 // s = 3
	}
}

// blockChoice returns the atom-level edge value realizing blockTable's
// cost at ambient net base (the lowest such value on ties).
func blockChoice(base int, gt, total int64) int {
	best, bestA := inf, 0
	for a := -1; a <= 1; a++ {
		c := int64(absInt(a)) + listCost(base+a, gt, total)
		if c < best {
			best = c
			bestA = a
		}
	}
	return bestA
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// finalize fills the per-block cost tables.
func (p *bipProblem) finalize() {
	for i := 0; i < p.nAtoms; i++ {
		for j := 0; j < p.nRight; j++ {
			p.tab[i][j] = blockTable(p.cnt[i][j], p.leftSizes[i]*p.rightSizes[j])
		}
	}
}

// block returns the finishing cost of block (i,j) at ambient net s.
func (p *bipProblem) block(i, j, s int) int64 {
	if s < tabMin || s > tabMax {
		return inf
	}
	return p.tab[i][j][s-tabMin]
}

// rowBest returns the optimal row net of atom i and its cost including
// the atom's blocks, given the per-column nets of every coarser layer
// (top, columns and the atom's group).
func (p *bipProblem) rowBest(i int, tops *[maxRight]int) (int8, int64) {
	bestRow, bestCost := int8(0), inf
	lo, hi := -1, 1
	if !p.rowOK[i] {
		lo, hi = 0, 0
	}
	for r := lo; r <= hi; r++ {
		c := int64(absInt(r))
		for j := 0; j < p.nRight && c < inf; j++ {
			c += p.block(i, j, tops[j]+r)
		}
		if c < bestCost {
			bestCost = c
			bestRow = int8(r)
		}
	}
	return bestRow, bestCost
}

// groupBest chooses the net of group g jointly with the rows of its
// atoms, given the per-column nets of top and columns. It returns the
// group net and the cost of the group edge, its rows and their blocks,
// and stores the chosen rows of the group's atoms in rows.
func (p *bipProblem) groupBest(g int8, base *[maxRight]int, rows *[maxAtoms]int8) (int8, int64) {
	bestG, bestCost := int8(0), inf
	var trial [maxAtoms]int8
	var tops [maxRight]int
	for r := -1; r <= 1; r++ {
		for j := 0; j < p.nRight; j++ {
			tops[j] = base[j] + r
		}
		c := int64(absInt(r))
		for i := 0; i < p.nAtoms && c < inf; i++ {
			if p.groupOf[i] != g {
				continue
			}
			row, rc := p.rowBest(i, &tops)
			trial[i] = row
			c += rc
		}
		if c < bestCost {
			bestCost = c
			bestG = int8(r)
			for i := 0; i < p.nAtoms; i++ {
				if p.groupOf[i] == g {
					rows[i] = trial[i]
				}
			}
		}
	}
	return bestG, bestCost
}

// sidesBest chooses, given the ambient net of every column (top plus
// column edges), the group and row nets of all left atoms. It records
// them in plan and returns their cost including the blocks. Given the
// ambient nets, ungrouped atoms and groups are independent of each
// other, which is what lets a cross entry store the result per root
// (sideCosts) and a partner evaluation add two stored vectors.
func (p *bipProblem) sidesBest(base *[maxRight]int, plan *bipPlan) int64 {
	var total int64
	for i := 0; i < p.nAtoms; i++ {
		if p.groupOf[i] == -1 {
			row, c := p.rowBest(i, base)
			plan.rows[i] = row
			total += c
		}
	}
	for g := int8(0); g < 2; g++ {
		if p.groups[g] != -1 {
			gv, c := p.groupBest(g, base, &plan.rows)
			plan.groupVals[g] = gv
			total += c
		}
	}
	return total
}

// solveBip finds a cost-minimal panel encoding for the problem.
func solveBip(p *bipProblem) bipPlan {
	p.finalize()
	best := bipPlan{cost: inf}
	q := p.nRight

	var cols [maxRight]int8
	evaluate := func(t int) {
		var base [maxRight]int
		colCost := int64(absInt(t))
		for j := 0; j < q; j++ {
			base[j] = int(p.offset) + t + int(cols[j])
			colCost += int64(absInt(int(cols[j])))
		}
		if colCost >= best.cost {
			return
		}
		var plan bipPlan
		plan.top = int8(t)
		plan.cols = cols
		if total := colCost + p.sidesBest(&base, &plan); total < best.cost {
			plan.cost = total
			best = plan
		}
	}

	// Restrict the top and column nets so that the cumulative ambient
	// net stays in {0,1}: a top/column layer outside that range forces
	// every block underneath to compensate, which row- and atom-level
	// edges almost never do more cheaply. (Rows and atoms remain fully
	// ternary, so e.g. "cover everything, carve one row out" encodings
	// are still found.) This prunes the enumeration 3x.
	for t := -int(p.offset); t <= 1-int(p.offset); t++ {
		cum := int(p.offset) + t
		colLo, colHi := 0, 0
		if p.colsOK {
			colLo, colHi = -cum, 1-cum
		}
		for c0 := colLo; c0 <= colHi; c0++ {
			cols[0] = int8(c0)
			if q > 1 {
				for c1 := colLo; c1 <= colHi; c1++ {
					cols[1] = int8(c1)
					evaluate(t)
				}
			} else {
				evaluate(t)
			}
		}
	}
	return best
}

// sideVec holds, for each ambient vector over the right atoms of a
// Case-2 panel (bit j of the index is the ambient net of right atom j),
// the cost sidesBest finds for the atoms of one left root, narrowed to
// int32. The slots a single right atom does not have hold sideInf. A
// finite slot is at most the pair's subedges + 2 (list every subedge
// under one edge per layer), so it stays exact for any pair with fewer
// than 2^31 - 3 subedges; larger values saturate at sideInf.
type sideVec [1 << maxRight]int32

const sideInf = int32(1<<31 - 1)

// narrowSide converts an exact side vector to a sideVec, saturating.
func narrowSide(exact [1 << maxRight]int64) (s sideVec) {
	for v, c := range exact {
		s[v] = int32(min(c, int64(sideInf)))
	}
	return s
}

// sideCosts returns the exact side vector of the problem's left atoms by
// the program's own row step: the reference sideKernel is checked
// against (TestSideKernelMatchesSideCosts).
func (p *bipProblem) sideCosts() [1 << maxRight]int64 {
	p.finalize()
	out := [1 << maxRight]int64{inf, inf, inf, inf}
	var plan bipPlan
	for v := 0; v < 1<<p.nRight; v++ {
		base := [maxRight]int{v & 1, v >> 1}
		out[v] = p.sidesBest(&base, &plan)
	}
	return out
}

// sideKernel returns the side vector sideCosts finds for the half of a
// Case-2 panel that fillSide builds, straight from the block counts bc
// (left atoms as rows) and the atom sizes: nl left atoms of sizes ls, nr
// right atoms of sizes rs. Block (i,j) sits under the ambient net v_j
// plus the left root's group net g (two atoms only) plus atom i's row
// net r, each in {-1,0,1}, so every slot is a minimum over at most
// 3 x 3 x 3 table sums; an absent right atom's blocks cost nothing.
func sideKernel(bc *blockCounts, ls, rs *[2]int64, nl, nr int) sideVec {
	var tab [2][2][tabLen]int64
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			tab[i][j] = blockTable(bc[i][j], ls[i]*rs[j])
		}
	}
	// row is atom i's cheapest row net plus its blocks under column nets
	// n0, n1 in [-1,2]: table index n+r-tabMin for r = -1, 0, 1.
	row := func(i, n0, n1 int) int64 {
		t := &tab[i]
		return min(1+t[0][n0+1]+t[1][n1+1], t[0][n0+2]+t[1][n1+2], 1+t[0][n0+3]+t[1][n1+3])
	}
	out := [1 << maxRight]int64{inf, inf, inf, inf}
	for v := 0; v < 1<<nr; v++ {
		n0, n1 := v&1, v>>1
		out[v] = row(0, n0, n1)
		if nl == 2 {
			out[v] = min(1+row(0, n0-1, n1-1)+row(1, n0-1, n1-1), out[v]+row(1, n0, n1), 1+row(0, n0+1, n1+1)+row(1, n0+1, n1+1))
		}
	}
	return narrowSide(out)
}

// zeroSide[nl-1][nr-1] is the side vector of a left root with nl atoms
// that has no subedge to a right root with nr atoms: what a partner not
// adjacent to C contributes to the (M,C) panel. It holds for atoms of
// any size: an empty block's table depends on its size only at ambient
// net 2, which no cheapest choice of nets reaches
// (TestPanelCostMatchesSolveBip).
var zeroSide = func() (z [2][maxRight]sideVec) {
	for nl := 1; nl <= 2; nl++ {
		for nr := 1; nr <= maxRight; nr++ {
			p := bipProblem{groups: [2]int32{-1, -1}, nAtoms: nl, nRight: nr, rightSizes: [maxRight]int64{1, 1}}
			for i := 0; i < nl; i++ {
				p.groupOf[i] = -1
				if nl > 1 {
					p.groups[0], p.groupOf[i] = 0, 0
				}
				p.rowOK[i] = true
				p.leftSizes[i] = 1
			}
			z[nl-1][nr-1] = narrowSide(p.sideCosts())
		}
	}
	return z
}()

// panelCost returns the optimum of the Case-2 panel whose two left
// roots have side vectors x and y towards the right root: solveBip's
// cost for that problem, without building it. Ambient vector 0 costs no
// edge; each other one costs one — a column edge, or for both columns
// the top edge alone. With one right atom the vectors past 1 are
// sideInf, and the sums stay in int64.
func panelCost(x, y *sideVec) int64 {
	return min(int64(x[0])+int64(y[0]), 1+int64(x[1])+int64(y[1]),
		1+int64(x[2])+int64(y[2]), 1+int64(x[3])+int64(y[3]))
}

// materializeBip converts a plan into concrete signed edges appended
// to out, including subnode-level correction lists for blocks that
// stay mixed. Vertex marks come from the caller's context, so commits
// in different groups can materialize concurrently.
func (st *state) materializeBip(ctx *gctx, out []sedge, p *bipProblem, plan *bipPlan) []sedge {
	emit := func(a, b int32, v int8) {
		if v != 0 {
			out = append(out, sedge{a: a, b: b, sign: v})
		}
	}
	emit(p.leftTop, p.rightTop, plan.top)
	for j := 0; j < p.nRight; j++ {
		emit(p.leftTop, p.rightAtoms[j], plan.cols[j])
	}
	for g := 0; g < 2; g++ {
		if p.groups[g] != -1 {
			emit(p.groups[g], p.rightTop, plan.groupVals[g])
		}
	}
	for i := 0; i < p.nAtoms; i++ {
		x := p.atoms[i]
		emit(x, p.rightTop, plan.rows[i])
		base := int(p.offset) + int(plan.top) + int(plan.rows[i])
		if g := p.groupOf[i]; g != -1 {
			base += int(plan.groupVals[g])
		}
		for j := 0; j < p.nRight; j++ {
			y := p.rightAtoms[j]
			b := base + int(plan.cols[j])
			gt, total := p.cnt[i][j], p.leftSizes[i]*p.rightSizes[j]
			a := blockChoice(b, gt, total)
			emit(x, y, int8(a))
			switch b + a {
			case 0:
				if gt > 0 {
					out = st.appendBlockEdges(ctx, out, x, y, 1)
				}
			case 1:
				if gt < total {
					out = st.appendBlockNonEdges(ctx, out, x, y, -1)
				}
			default:
				panic("core: materializeBip reached invalid net")
			}
		}
	}
	return out
}

// appendBlockEdges appends one signed subnode edge per subedge between
// the (disjoint) supernodes x and y.
func (st *state) appendBlockEdges(ctx *gctx, out []sedge, x, y int32, sign int8) []sedge {
	ep := ctx.nextEpoch()
	ctx.markVerts(y, ep)
	for _, u := range st.verts[x] {
		for _, w := range st.g.Neighbors(u) {
			if ctx.mark[w] == ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}

// appendBlockNonEdges appends one signed subnode edge per non-adjacent
// pair between the (disjoint) supernodes x and y.
func (st *state) appendBlockNonEdges(ctx *gctx, out []sedge, x, y int32, sign int8) []sedge {
	for _, u := range st.verts[x] {
		ep := ctx.nextEpoch()
		for _, w := range st.g.Neighbors(u) {
			ctx.mark[w] = ep
		}
		for _, w := range st.verts[y] {
			if ctx.mark[w] != ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}

// appendWithinNonEdges appends an n-edge for every non-adjacent pair
// inside supernode x (used when the (M,M) scenario rewrites a side).
func (st *state) appendWithinNonEdges(ctx *gctx, out []sedge, x int32, sign int8) []sedge {
	vs := st.verts[x]
	for i, u := range vs {
		ep := ctx.nextEpoch()
		for _, w := range st.g.Neighbors(u) {
			ctx.mark[w] = ep
		}
		for _, w := range vs[i+1:] {
			if ctx.mark[w] != ep {
				out = append(out, sedge{a: u, b: w, sign: sign})
			}
		}
	}
	return out
}
