package core

import (
	"math"
	"testing"
)

// checkScoreMatchesPlan pops root a and compares, for every other root
// b, what scoreMerge reports with what the planner builds: the same
// feasibility, numerator and — bit for bit — saving, and under every
// cutoff the score survives exactly when the planned numerator does not
// exceed the cutoff's numerator bound. Returns the pairs compared.
func checkScoreMatchesPlan(t *testing.T, st *state, ctx *gctx, a int32, hb int) int {
	t.Helper()
	ids := st.reserveIDs(1)
	defer st.releaseIDs(ids)
	ctx.stampPop(a)
	pairs := 0
	for _, b := range st.roots() {
		if b == a {
			continue
		}
		pairs++
		dec := st.evaluateMerge(ctx, a, b, ids[0], hb)
		p, ok := st.scoreMerge(ctx, b, hb, math.Inf(-1))
		if ok != (dec != nil) {
			t.Fatalf("pair (%d,%d) hb %d: scored feasible=%v, planned feasible=%v", a, b, hb, ok, dec != nil)
		}
		if dec == nil {
			continue
		}
		if p.num != dec.numerator || math.Float64bits(p.saving) != math.Float64bits(dec.saving) {
			t.Fatalf("pair (%d,%d) hb %d: scored %d / %v, planned %d / %v", a, b, hb, p.num, p.saving, dec.numerator, dec.saving)
		}
		denom := st.rootCost(a) + st.rootCost(b) - st.entry(a, b).numEdges()
		for _, cut := range []float64{0, 0.25, 0.5, dec.saving, dec.saving + 1e-9} {
			numCutoff := int64((1-cut)*float64(denom)) + 1 + int64(float64(denom)*1e-12)
			if _, ok := st.scoreMerge(ctx, b, hb, cut); ok != (dec.numerator <= numCutoff) {
				t.Fatalf("pair (%d,%d) cutoff %v: scored survives=%v, planned numerator %d against bound %d",
					a, b, cut, ok, dec.numerator, numCutoff)
			}
		}
		ctx.putDec(dec)
	}
	return pairs
}

// flattenCrossEntries re-encodes every cross entry as one p-edge per
// subedge: exact, but dearer than a panel wherever a pair is dense. The
// greedy search itself hardly ever leaves a loose entry behind (a commit
// keeps the cheaper of the old edges and the panel), so this is how the
// tests get states that have them. Returns the number of loose sides.
func flattenCrossEntries(st *state, ctx *gctx) int {
	loose := 0
	for _, x := range st.roots() {
		for _, nb := range st.nbrs[x] {
			y, e := nb.c, &st.ents[nb.e]
			if y < x {
				continue
			}
			flat := exactEdges(st.appendBlockEdges(ctx, nil, x, y, 1))
			d := int64(len(flat) - len(e.edges))
			linkEntry(st, x, y, crossEntry{edges: flat, row: x, blocks: e.counts(x)})
			for _, r := range [][2]int32{{x, y}, {y, x}} {
				if i, _ := search(st.nbrs[r[0]], r[1]); st.nbrs[r[0]][i].loose {
					loose++
				}
			}
			st.pcost[x] += d
			st.pcost[y] += d
		}
	}
	return loose
}

// Scoring a pair and planning it are separate code: the argmax sees
// only scores, the commit applies the plan, and processGroup panics
// when the two disagree on the winner. This holds them together on
// every pair, winners or not, of mid-run states: unbounded, under a
// height bound, and with loose entries.
func TestScoreMatchesPlan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hb      int
		flatten bool
	}{{"unbounded", 0, false}, {"hb3", 3, false}, {"loose", 0, true}} {
		st := allocState(t)
		ctx := st.getCtx()
		if tc.flatten {
			if loose := flattenCrossEntries(st, ctx); loose < 25 {
				t.Fatalf("%s: only %d loose entry sides", tc.name, loose)
			}
		}
		pairs := 0
		for _, a := range st.roots() {
			pairs += checkScoreMatchesPlan(t, st, ctx, a, tc.hb)
		}
		if pairs < 5000 {
			t.Fatalf("%s: only %d pairs compared", tc.name, pairs)
		}
		st.putCtx(ctx)
	}
}
