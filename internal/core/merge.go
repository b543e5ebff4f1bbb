package core

import "math"

// This file implements the merging step (Algorithm 2): scoring every
// candidate partner of a popped root by the saving of Eq. (8), planning
// the winner's temporary merge, and committing it with the encoding
// update of Sect. III-B3.
//
// The panels' only graph-derived inputs, the per-atom subedge counts
// of a root pair, are read off the pair's shared crossEntry; no step
// here visits the graph. Scoring a partner (scoreMerge) builds no
// panel problem for the neighbours of the pair: what each neighbour's
// re-encoding would save is a minimum over sums of two side vectors
// stored in the roots' neighbour records. Only the winner is planned
// (evaluateMerge), with the exact solves whose plans commitMerge
// materializes. Transient objects (panel problems, decisions) are
// recycled through the caller's gctx; commits allocate only the
// long-lived encoding (exact-size edge lists and cross entries).

// Within-encoding scenarios for Case 1.
const (
	withinKeep     = iota // keep the current cross(A,B) edges unchanged
	withinRewrite         // rewrite cross(A,B) inside the panel
	withinSelfLoop        // (M,M) p-loop scenario; sides handled per sideMode
)

// Side handling under the (M,M) scenario.
const (
	sideNLoopKeep = iota // add n-loop (X,X), keep within(X)
	sideDrop             // drop within(X): X is a leaf or a complete supernode
	sideNList            // drop within(X), list every non-adjacent pair as n-edges
)

type withinPlan struct {
	cost     int64
	scenario int
	prob     *bipProblem
	plan     bipPlan
	sideMode [2]int8
}

type crossPlan struct {
	c        int32
	keep     bool
	prob     *bipProblem
	plan     bipPlan
	cost     int64
	keepCost int64
}

// blockMin returns the cheapest achievable cost of one block over all
// ambient nets: 0 for uniform blocks, min(gt, total-gt) for mixed ones.
func blockMin(gt, total int64) int64 {
	if gt == 0 || gt == total {
		return 0
	}
	if d := total - gt; d < gt {
		return d
	}
	return gt
}

// case1Bound computes, without building the problem, a lower bound on
// any panel rewrite of the cross(A,B) blocks: the sum of per-block
// minima over the atoms of A and B.
func (st *state) case1Bound(a, b int32, bc blockCounts) int64 {
	var lb, gtTotal int64
	aAtoms := st.atomsOf(a)
	bAtoms := st.atomsOf(b)
	for i := 0; i < numAtoms(aAtoms); i++ {
		for j := 0; j < numAtoms(bAtoms); j++ {
			gt := bc[i][j]
			gtTotal += gt
			lb += blockMin(gt, int64(st.size[aAtoms[i]])*int64(st.size[bAtoms[j]]))
		}
	}
	if lb == 0 && gtTotal > 0 {
		lb = 1
	}
	return lb
}

// mergeDecision is the full outcome of a (temporary) merge evaluation;
// committing it applies exactly the evaluated encoding.
type mergeDecision struct {
	a, b      int32
	within    withinPlan
	crosses   []crossPlan
	numerator int64
	saving    float64
}

// fillLeftSingle configures the left side of a problem as one tree
// (top, atoms = children or self), used by Case 1.
func (st *state) fillLeftSingle(p *bipProblem, top int32) {
	atoms := st.atomsOf(top)
	p.leftTop = top
	p.groups = [2]int32{-1, -1}
	p.nAtoms = numAtoms(atoms)
	for i := 0; i < p.nAtoms; i++ {
		p.atoms[i] = atoms[i]
		p.groupOf[i] = -1
		p.rowOK[i] = atoms[i] != top
		p.leftSizes[i] = int64(st.size[atoms[i]])
	}
}

// fillRight configures the right side of a problem as one tree.
func (st *state) fillRight(p *bipProblem, top int32) {
	atoms := st.atomsOf(top)
	p.rightTop = top
	p.nRight = numAtoms(atoms)
	for j := 0; j < p.nRight; j++ {
		p.rightAtoms[j] = atoms[j]
		p.rightSizes[j] = int64(st.size[atoms[j]])
	}
	p.colsOK = p.nRight > 1
}

// fillCase1 builds the panel optimization for the cross(A,B) adjacency:
// left tree (A, ch(A)), right tree (B, ch(B)); bc holds the pair's block
// counts with A's atoms as rows.
func (st *state) fillCase1(p *bipProblem, a, b int32, bc blockCounts, offset int8) {
	st.fillLeftSingle(p, a)
	st.fillRight(p, b)
	p.offset = offset
	for i := 0; i < p.nAtoms; i++ {
		p.cnt[i] = bc[i]
	}
}

// fillGroup appends the atoms of root x to the left side of a Case-2
// problem as group s (a group proper only when x has two atoms); bc
// holds the block counts of x towards the right root, x's atoms as rows.
func (st *state) fillGroup(p *bipProblem, s int, x int32, bc blockCounts) {
	atoms := st.atomsOf(x)
	na := numAtoms(atoms)
	grp := int8(-1)
	if na > 1 {
		p.groups[s] = x
		grp = int8(s)
	}
	n := p.nAtoms
	for i := 0; i < na; i++ {
		p.atoms[n] = atoms[i]
		p.groupOf[n] = grp
		p.rowOK[n] = true
		p.leftSizes[n] = int64(st.size[atoms[i]])
		p.cnt[n] = bc[i]
		n++
	}
	p.nAtoms = n
}

// fillSide builds the half of a Case-2 problem that root x contributes
// when the right root is c, whoever x is merged with: enough for
// sideCosts, not for a solve (there is no left top).
func (st *state) fillSide(p *bipProblem, x, c int32, bc blockCounts) {
	p.groups = [2]int32{-1, -1}
	p.offset = 0
	p.nAtoms = 0
	st.fillGroup(p, 0, x, bc)
	st.fillRight(p, c)
}

// fillCase2 builds the panel optimization for the adjacency between the
// merged tree M = A∪B and root C's tree: A's half, B's group beside it,
// and M on top. bcA and bcB hold the block counts of (A,C) and (B,C)
// with A's and B's atoms as rows.
func (st *state) fillCase2(p *bipProblem, mid, a, b, c int32, bcA, bcB blockCounts) {
	st.fillSide(p, a, c, bcA)
	st.fillGroup(p, 1, b, bcB)
	p.leftTop = mid
}

// disjointLoopPlan is solveBip's answer to the (M,M) panel of a pair
// with no subedge between them (TestDisjointLoopPlan): one n-edge
// between the tops cancels the loop over A×B.
var disjointLoopPlan = bipPlan{cost: 1, top: -1}

// computeWithinPlan evaluates the three Case-1 scenarios and returns
// the cheapest exact encoding of within(M). Panel problems come from
// the context free-list; the losing scenario's problem is returned.
// eAB is the (A,B) entry, nil when the two roots are not adjacent.
func (st *state) computeWithinPlan(ctx *gctx, a, b int32, eAB *crossEntry) withinPlan {
	wA := int64(len(st.within[a]))
	wB := int64(len(st.within[b]))
	keepCost := wA + wB + eAB.numEdges()
	bc := eAB.counts(a)
	var lb int64 // the blocks of a pair that is not adjacent are empty
	if eAB != nil {
		lb = st.case1Bound(a, b, bc)
	}

	var prob1 *bipProblem
	rewriteCost := inf
	var plan1 bipPlan
	if wA+wB+lb < keepCost {
		prob1 = ctx.getProb()
		st.fillCase1(prob1, a, b, bc, 0)
		plan1 = solveBip(prob1)
		rewriteCost = wA + wB + plan1.cost
	}

	// (M,M) scenario: evaluate side handling first; its cost bounds
	// whether the second solve is worth running.
	var sideMode [2]int8
	sideCost := int64(0)
	for s, x := range [2]int32{a, b} {
		switch {
		case st.isLeaf(x):
			sideMode[s] = sideDrop
		case st.selfGT[x] == pairsWithin(st.size[x]):
			sideMode[s] = sideDrop
		default:
			nKeep := 1 + int64(len(st.within[x]))
			nList := pairsWithin(st.size[x]) - st.selfGT[x]
			if nKeep <= nList {
				sideMode[s] = sideNLoopKeep
				sideCost += nKeep
			} else {
				sideMode[s] = sideNList
				sideCost += nList
			}
		}
	}
	var prob2 *bipProblem
	loopCost := inf
	var plan2 bipPlan
	bound := keepCost
	if rewriteCost < bound {
		bound = rewriteCost
	}
	if 1+sideCost+lb < bound {
		prob2 = ctx.getProb()
		st.fillCase1(prob2, a, b, bc, 1)
		if eAB == nil {
			plan2 = disjointLoopPlan
		} else {
			plan2 = solveBip(prob2)
		}
		loopCost = 1 + sideCost + plan2.cost
	}

	switch {
	case keepCost <= rewriteCost && keepCost <= loopCost:
		ctx.putProb(prob1)
		ctx.putProb(prob2)
		return withinPlan{cost: keepCost, scenario: withinKeep}
	case rewriteCost <= loopCost:
		ctx.putProb(prob2)
		return withinPlan{cost: rewriteCost, scenario: withinRewrite, prob: prob1, plan: plan1}
	default:
		ctx.putProb(prob1)
		return withinPlan{cost: loopCost, scenario: withinSelfLoop, prob: prob2, plan: plan2, sideMode: sideMode}
	}
}

// computeCrossPlan evaluates keeping versus rewriting the encoding
// between the merged tree and root C, given A's and B's records towards
// C (either may be nil). The panel's optimum is panelCost of the two
// stored sides, so keep is decided without a solve; solveBip runs only
// when a rewrite wins, for the nets commitMerge materializes.
func (st *state) computeCrossPlan(ctx *gctx, mid, a, b, c int32, rA, rB *nbr) crossPlan {
	nc := numAtoms(st.atomsOf(c))
	var eA, eB *crossEntry
	var keepCost int64
	sA, sB := &zeroSide[numAtoms(st.atomsOf(a))-1][nc-1], &zeroSide[numAtoms(st.atomsOf(b))-1][nc-1]
	if rA != nil {
		eA, sA = &st.ents[rA.e], &rA.side
		keepCost += int64(rA.n)
	}
	if rB != nil {
		eB, sB = &st.ents[rB.e], &rB.side
		keepCost += int64(rB.n)
	}
	if panelCost(sA, sB) >= keepCost {
		return crossPlan{c: c, keep: true, cost: keepCost, keepCost: keepCost}
	}
	prob := ctx.getProb()
	st.fillCase2(prob, mid, a, b, c, eA.counts(a), eB.counts(b))
	plan := solveBip(prob)
	return crossPlan{c: c, keep: false, prob: prob, plan: plan, cost: plan.cost, keepCost: keepCost}
}

// mergeDenom returns the Eq. (8) denominator of merging roots a and b,
// whose entry has nAB edges (0 when they are not adjacent), and whether the
// merge is feasible: the denominator is positive and the merged tree
// respects the height bound hb (hb <= 0 means unbounded — the original
// SLUGGER).
func (st *state) mergeDenom(a, b int32, nAB int64, hb int) (int64, bool) {
	if hb > 0 {
		h := st.height[a]
		if st.height[b] > h {
			h = st.height[b]
		}
		if int(h)+1 > hb {
			return 0, false
		}
	}
	denom := st.rootCost(a) + st.rootCost(b) - nAB
	return denom, denom > 0
}

// partner is one scored candidate of a pop: its position in the
// candidate queue, the Eq. (8) numerator of merging it with the popped
// root, and the saving.
type partner struct {
	idx    int // -1: none yet
	num    int64
	saving float64
}

// beats reports whether p replaces best in an index-ordered argmax scan:
// there is no best yet, or p saves strictly more.
func (p partner) beats(best partner) bool {
	return best.idx < 0 || p.saving > best.saving
}

// scoreMerge computes the saving (Eq. (8)) of merging the root ctx last
// popped (stampPop) with root b, without planning the merge. ok is
// false when the merge is infeasible (mergeDenom) or its saving provably
// falls below minSaving — such a pair can neither win the argmax nor
// pass the merging threshold.
//
// The numerator is the h-edges of the merged tree, the cheapest
// encoding of within(M), and for every root C adjacent to A or B the
// cheaper of keeping the (A,C) and (B,C) edges and re-encoding them in
// the (M,C) panel. Keeping everything costs what pcost already holds,
// so only the neighbours whose panel beats keeping are visited: those
// adjacent to both roots, and those adjacent to one whose entry is
// loose — for the rest the panel cannot cost less than the edges kept.
func (st *state) scoreMerge(ctx *gctx, b int32, hb int, minSaving float64) (p partner, ok bool) {
	pop := &ctx.pop
	a := pop.a
	var eAB *crossEntry
	var nAB int64
	if r := pop.record(b); r != nil {
		eAB, nAB = &st.ents[r.e], int64(r.n)
	}
	denom, ok := st.mergeDenom(a, b, nAB, hb)
	if !ok {
		return p, false
	}
	var wCost int64
	if eAB != nil && eAB.within != 0 {
		wCost = int64(eAB.within)
	} else {
		w := st.computeWithinPlan(ctx, a, b, eAB)
		ctx.putProb(w.prob)
		wCost = w.cost
		if eAB != nil {
			eAB.within = int32(wCost)
		}
	}
	wA, wB := int64(len(st.within[a])), int64(len(st.within[b]))
	num := st.hCost[a] + st.hCost[b] + 2 + wCost + (st.pcost[a] - wA - nAB) + (st.pcost[b] - wB - nAB)

	// A neighbour's gain is what its panel saves over the edges kept.
	nA, nB := numAtoms(st.atomsOf(a)), numAtoms(st.atomsOf(b))
	lb := st.nbrs[b]
	for i := range lb {
		rB := &lb[i]
		c := rB.c
		if c == a {
			continue
		}
		if rA := pop.record(c); rA != nil {
			num -= max(0, int64(rA.n)+int64(rB.n)-panelCost(&rA.side, &rB.side))
		} else if rB.loose {
			num -= max(0, int64(rB.n)-panelCost(&zeroSide[nA-1][numAtoms(st.atomsOf(c))-1], &rB.side))
		}
	}
	for _, c := range pop.loose {
		if _, common := search(lb, c); common || c == b {
			continue
		}
		rA := pop.record(c)
		num -= max(0, int64(rA.n)-panelCost(&rA.side, &zeroSide[nB-1][numAtoms(st.atomsOf(c))-1]))
	}

	// numCutoff over-approximates the largest numerator still achieving
	// minSaving. The slack must dominate the rounding error of the
	// float64 product (~denom*2^-52); a relative slack keeps the rejection
	// conservative at every magnitude, so a pair whose computed saving
	// would beat minSaving is never rejected. A product int64 cannot
	// represent (minSaving = -Inf: no cutoff) rejects nothing.
	numCutoff := int64(math.MaxInt64)
	if f := (1 - minSaving) * float64(denom); f < 1<<62 {
		numCutoff = int64(f) + 1 + int64(float64(denom)*1e-12)
	}
	if num > numCutoff {
		return p, false
	}
	return partner{num: num, saving: 1 - float64(num)/float64(denom)}, true
}

// evaluateMerge plans merging roots a and b into the prospective
// supernode id mid: the full decision, whose numerator and saving are
// those scoreMerge reports for the pair, or nil when the merge is
// infeasible (mergeDenom). mid must equal the id the merge would be
// committed under, since rewritten panels reference it. The crosses of
// the decision are ascending in c: a merge of the two neighbour lists.
func (st *state) evaluateMerge(ctx *gctx, a, b, mid int32, hb int) *mergeDecision {
	eAB := st.entry(a, b)
	denom, ok := st.mergeDenom(a, b, eAB.numEdges(), hb)
	if !ok {
		return nil
	}
	dec := ctx.getDec()
	dec.a, dec.b = a, b
	dec.within = st.computeWithinPlan(ctx, a, b, eAB)

	num := st.hCost[a] + st.hCost[b] + 2 + dec.within.cost
	la, lb := st.nbrs[a], st.nbrs[b]
	for i, j := 0, 0; i < len(la) || j < len(lb); {
		c := int32(math.MaxInt32)
		if i < len(la) {
			c = la[i].c
		}
		if j < len(lb) && lb[j].c < c {
			c = lb[j].c
		}
		var rA, rB *nbr
		if i < len(la) && la[i].c == c {
			rA = &la[i]
			i++
		}
		if j < len(lb) && lb[j].c == c {
			rB = &lb[j]
			j++
		}
		if c == a || c == b {
			continue
		}
		cp := st.computeCrossPlan(ctx, mid, a, b, c, rA, rB)
		dec.crosses = append(dec.crosses, cp)
		num += cp.cost
	}
	dec.numerator = num
	dec.saving = 1 - float64(num)/float64(denom)
	return dec
}

// exactEdges copies the context's edge-building scratch into an
// exact-size long-lived slice.
func exactEdges(buf []sedge) []sedge {
	if len(buf) == 0 {
		return nil
	}
	out := make([]sedge, len(buf))
	copy(out, buf)
	return out
}

// commitMerge applies a merge decision under the supernode id m (which
// must equal the mid the decision was evaluated with): it rewrites the
// encoding per the evaluated plans and updates all bookkeeping. Must be
// called with the decision-relevant state unchanged since evaluation.
// Mutations of neighbor lists on roots outside the merged pair take the
// per-root striped lock, so groups sharing an external neighbor can
// commit concurrently. The (A,C) and (B,C) entries come from a walk of A's
// and B's lists beside the crosses, all ascending in c. The decision is
// consumed (recycled into ctx).
func (st *state) commitMerge(ctx *gctx, dec *mergeDecision, m int32) int32 {
	a, b := dec.a, dec.b
	la, lb := st.nbrs[a], st.nbrs[b]
	eAB := st.entry(a, b)

	// Allocate M's tree at its reserved id: the entries built below read
	// its atoms. Nothing reads M's root-only bookkeeping before it is set.
	st.parent[m] = -1
	st.child[m] = [2]int32{a, b}
	st.size[m] = st.size[a] + st.size[b]
	h := st.height[a]
	if st.height[b] > h {
		h = st.height[b]
	}
	st.height[m] = h + 1
	vs := make([]int32, 0, st.size[a]+st.size[b])
	vs = append(vs, st.verts[a]...)
	vs = append(vs, st.verts[b]...)
	st.verts[m] = vs
	st.hCost[m] = st.hCost[a] + st.hCost[b] + 2

	// Materialize within(M) in the context scratch, then copy exact.
	buf := ctx.edgeBuf[:0]
	switch dec.within.scenario {
	case withinKeep:
		buf = append(buf, st.within[a]...)
		buf = append(buf, st.within[b]...)
		if eAB != nil {
			buf = append(buf, eAB.edges...)
		}
	case withinRewrite:
		buf = append(buf, st.within[a]...)
		buf = append(buf, st.within[b]...)
		buf = st.materializeBip(ctx, buf, dec.within.prob, &dec.within.plan)
	case withinSelfLoop:
		buf = append(buf, sedge{a: m, b: m, sign: 1})
		for s, x := range [2]int32{a, b} {
			switch dec.within.sideMode[s] {
			case sideNLoopKeep:
				buf = append(buf, sedge{a: x, b: x, sign: -1})
				buf = append(buf, st.within[x]...)
			case sideDrop:
				// nothing: (M,M) alone covers the complete side
			case sideNList:
				buf = st.appendWithinNonEdges(ctx, buf, x, -1)
			}
		}
		buf = st.materializeBip(ctx, buf, dec.within.prob, &dec.within.plan)
	}
	w := exactEdges(buf)
	ctx.edgeBuf = buf[:0]
	st.within[m] = w
	st.selfGT[m] = st.selfGT[a] + st.selfGT[b] + eAB.counts(a).total()
	st.nbrs[m] = make([]nbr, len(dec.crosses))

	// Build each new cross entry in the slot of the (A,C) entry, or else
	// of the (B,C) one, and swap it in. The block counts of (M,C) follow
	// from those of (A,C) and (B,C), and the records' side vectors from
	// the counts. The neighbor c may be shared with another
	// concurrently-committing group; its list and pcost are guarded by the
	// striped lock. st.nbrs[m] is group-owned, and the decision's crosses
	// are in its order.
	var crossTotal int64
	i, j := 0, 0
	for k := range dec.crosses {
		cp := &dec.crosses[k]
		c := cp.c
		iA, eA := st.walkTo(la, &i, c)
		iB, eB := st.walkTo(lb, &j, c)
		var edges []sedge // kept whole when only one pair is adjacent
		buf = ctx.edgeBuf[:0]
		switch {
		case !cp.keep:
			buf = st.materializeBip(ctx, buf, cp.prob, &cp.plan)
		case eB == nil:
			edges = eA.edges
		case eA == nil:
			edges = eB.edges
		default:
			buf = append(append(buf, eA.edges...), eB.edges...)
		}
		if edges == nil {
			edges = exactEdges(buf)
			ctx.edgeBuf = buf[:0]
		}
		blocks := mergedRows(eA.counts(a), eB.counts(b))
		if eA == nil {
			iA, eA = iB, eB
		} else if eB != nil {
			*eB = crossEntry{}
		}
		*eA = crossEntry{edges: edges, row: m, blocks: blocks}

		st.nbrs[m][k] = st.record(m, c, iA)
		rec := st.record(c, m, iA)
		delta := int64(len(eA.edges)) - cp.keepCost
		mu := st.stripe(c)
		mu.Lock()
		st.nbrs[c] = swapIn(st.nbrs[c], a, b, rec)
		st.pcost[c] += delta
		mu.Unlock()
		crossTotal += int64(len(eA.edges))
	}
	st.pcost[m] = int64(len(w)) + crossTotal
	if eAB != nil {
		*eAB = crossEntry{}
	}

	// Update locators and hierarchy.
	for _, v := range vs {
		st.rootOf[v] = m
	}
	st.parent[a] = m
	st.parent[b] = m
	st.within[a] = nil
	st.within[b] = nil
	st.nbrs[a] = nil
	st.nbrs[b] = nil
	st.pcost[a] = 0
	st.pcost[b] = 0
	ctx.putDec(dec)
	return m
}

// walkTo advances *i past the records of the ascending list l below root
// c and returns the entry of l's record towards c, -1 and nil if none.
func (st *state) walkTo(l []nbr, i *int, c int32) (int32, *crossEntry) {
	for *i < len(l) && l[*i].c < c {
		*i++
	}
	if *i < len(l) && l[*i].c == c {
		return l[*i].e, &st.ents[l[*i].e]
	}
	return -1, nil
}

// tryMerge evaluates merging roots a and b and commits when feasible,
// returning the new supernode id or -1. Serial-phase helper of the
// white-box tests.
func (st *state) tryMerge(ctx *gctx, a, b int32, hb int) int32 {
	ids := st.reserveIDs(1)
	mid := ids[0]
	dec := st.evaluateMerge(ctx, a, b, mid, hb)
	if dec == nil {
		st.releaseIDs(ids)
		return -1
	}
	return st.commitMerge(ctx, dec, mid)
}

// totalCost recomputes the full encoding cost |P+|+|P-|+|H| from the
// bookkeeping (used by tests and instrumentation; O(#roots + #entries)).
func (st *state) totalCost() int64 {
	var total int64
	for _, r := range st.roots() {
		total += st.hCost[r] + int64(len(st.within[r]))
		for _, nb := range st.nbrs[r] {
			if nb.c > r {
				total += int64(len(st.ents[nb.e].edges))
			}
		}
	}
	return total
}
