package core

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/minhash"
)

// generateCandidates implements the candidate generation step of
// Sect. III-B2: root supernodes are grouped by min-hash shingles of
// their (1-hop) neighborhoods, re-splitting oversized groups with fresh
// shingle seeds up to maxLevels times and then randomly, so that every
// candidate set has at most maxGroup roots. Using a different base seed
// every iteration varies the candidate sets across iterations.
//
// Level 0 keys every root, so its shingles are computed in one bulk
// pass; deeper levels only re-key the roots of one oversized group, so
// their shingles are computed per root on demand — re-split hashing is
// scoped to the group being split instead of touching every root in
// the graph.
func (st *state) generateCandidates(iter, maxGroup int, seed int64) [][]int32 {
	roots := st.roots()
	var level0 []uint64
	key := func(root int32, level int) uint64 {
		levelSeed := minhash.Hash64(uint64(seed), uint64(iter)<<20|uint64(level))
		if level == 0 {
			if level0 == nil {
				level0 = st.rootShingles(levelSeed)
			}
			return level0[root]
		}
		return st.rootShingle(root, levelSeed)
	}
	return minhash.Group(roots, maxGroup, maxLevels, key, st.rng)
}

// rootShingle computes the shingle of a single root in O(sum of degrees
// in the root): the minimum of its subnodes' vertex shingles.
func (st *state) rootShingle(root int32, seed uint64) uint64 {
	best := ^uint64(0)
	for _, v := range st.verts[root] {
		if f := minhash.VertexShingle(st.g, v, seed); f < best {
			best = f
		}
	}
	return best
}

// rootShingles computes the shingle of every current root in
// O(|V|+|E|) (Lemma 2), in one serial pass.
func (st *state) rootShingles(seed uint64) []uint64 {
	return minhash.Shingles(st.g, st.rootOf, int(st.next), seed)
}

// processGroup runs the inner loop of Algorithm 2 on one candidate set:
// repeatedly pick a random root A, score every other root of the set as
// its partner, plan the merge with the partner maximizing the saving,
// and commit it when the saving reaches the threshold. Returns the
// number of merges performed.
//
// The group owns its RNG (seeded deterministically from the run seed
// and the group's position) and a reserved block of supernode ids, so
// its outcome depends only on its own territory — the scheduler can run
// non-conflicting groups concurrently and still reproduce the serial
// result exactly.
func (st *state) processGroup(group []int32, rng *rand.Rand, ids []int32, ctx *gctx, theta float64, hb int) int {
	q := append(ctx.qBuf[:0], group...)
	merges := 0
	for len(q) > 1 {
		i := rng.IntN(len(q))
		a := q[i]
		q[i] = q[len(q)-1]
		q = q[:len(q)-1]

		ctx.stampPop(a)
		best := partner{idx: -1}
		cutoff := theta
		for j, z := range q {
			p, ok := st.scoreMerge(ctx, z, hb, cutoff)
			if ok && p.beats(best) {
				p.idx = j
				best = p
				if p.saving > cutoff {
					cutoff = p.saving
				}
			}
		}
		if best.idx >= 0 && best.saving >= theta {
			mid := ids[merges]
			dec := st.evaluateMerge(ctx, a, q[best.idx], mid, hb)
			if dec == nil || dec.numerator != best.num {
				panic(fmt.Sprintf("core: merge of roots %d and %d scored numerator %d, planned %+v", a, q[best.idx], best.num, dec))
			}
			st.commitMerge(ctx, dec, mid)
			q[best.idx] = mid
			merges++
		}
	}
	ctx.qBuf = q[:0]
	return merges
}
