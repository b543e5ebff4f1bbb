package core

import (
	"math"
	"math/rand"
	"sync/atomic"

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
// (parallel) pass; deeper levels only re-key the roots of one oversized
// group, so their shingles are computed per root on demand — re-split
// hashing is scoped to the group being split instead of touching every
// root in the graph.
func (st *state) generateCandidates(iter, maxGroup, maxLevels int, seed int64) [][]int32 {
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

// vertexShingle is the per-vertex 1-hop shingle of Lemma 2:
// min(h(v), min_{w in N(v)} h(w)) under the seeded permutation h.
func (st *state) vertexShingle(v int32, seed uint64) uint64 {
	f := minhash.Hash64(seed, uint64(v))
	for _, w := range st.g.Neighbors(v) {
		if h := minhash.Hash64(seed, uint64(w)); h < f {
			f = h
		}
	}
	return f
}

// rootShingle computes the shingle of a single root in O(sum of degrees
// in the root): the minimum of its subnodes' vertex shingles.
func (st *state) rootShingle(root int32, seed uint64) uint64 {
	best := ^uint64(0)
	for _, v := range st.verts[root] {
		if f := st.vertexShingle(v, seed); f < best {
			best = f
		}
	}
	return best
}

// rootShingles computes the shingle of every current root in
// O(|V|+|E|) (Lemma 2). With multiple workers the vertex loop is
// chunked and per-root minima are folded with compare-and-swap — min is
// commutative, so the result is identical to the serial pass.
func (st *state) rootShingles(seed uint64) []uint64 {
	sh := make([]uint64, st.next)
	for i := range sh {
		sh[i] = ^uint64(0)
	}
	if st.workers > 1 && st.n >= 1024 {
		runChunks(st.workers, int(st.n), func(_, lo, hi int) {
			for v := int32(lo); v < int32(hi); v++ {
				f := st.vertexShingle(v, seed)
				r := st.rootOf[v]
				for {
					old := atomic.LoadUint64(&sh[r])
					if f >= old || atomic.CompareAndSwapUint64(&sh[r], old, f) {
						break
					}
				}
			}
		})
		return sh
	}
	for v := int32(0); v < st.n; v++ {
		if f := st.vertexShingle(v, seed); f < sh[st.rootOf[v]] {
			sh[st.rootOf[v]] = f
		}
	}
	return sh
}

// processGroup runs the inner loop of Algorithm 2 on one candidate set:
// repeatedly pick a random root A, find the partner maximizing the
// saving, and merge when the saving reaches the threshold. Returns the
// number of merges performed.
//
// The group owns its RNG (seeded deterministically from the run seed
// and the group's position) and a reserved block of supernode ids, so
// its outcome depends only on its own territory — the scheduler can run
// non-conflicting groups concurrently and still reproduce the serial
// result exactly. When innerWorkers > 1, partner evaluations (pure
// reads of the state) additionally run concurrently; the argmax
// reduction keeps the lowest-index maximum, like the serial scan, so
// any worker count picks identical partners.
func (st *state) processGroup(group []int32, rng *rand.Rand, ids []int32, ctx *gctx, theta float64, hb int, innerWorkers int) int {
	q := append(ctx.qBuf[:0], group...)
	merges := 0
	for len(q) > 1 {
		i := rng.Intn(len(q))
		a := q[i]
		q[i] = q[len(q)-1]
		q = q[:len(q)-1]

		mid := ids[merges] // the id a committed merge would take
		var best *mergeDecision
		bestIdx := -1
		if innerWorkers > 1 && len(q) >= 2*innerWorkers {
			best, bestIdx = st.argmaxParallel(ctx, a, mid, q, theta, hb, innerWorkers)
		} else {
			cutoff := theta
			for j, z := range q {
				dec := st.evaluateMerge(ctx, a, z, mid, hb, cutoff)
				if dec == nil {
					continue
				}
				if best == nil || dec.saving > best.saving {
					ctx.putDec(best)
					best = dec
					bestIdx = j
					if dec.saving > cutoff {
						cutoff = dec.saving
					}
				} else {
					ctx.putDec(dec)
				}
			}
		}
		if best != nil && best.saving >= theta {
			st.commitMerge(ctx, best, mid)
			q[bestIdx] = mid
			merges++
		} else {
			ctx.putDec(best)
		}
	}
	ctx.qBuf = q[:0]
	return merges
}

// argmaxParallel evaluates all candidate partners concurrently.
// Evaluations are pure reads of the summarization state; worker
// goroutines borrow their own contexts from the state pool and share a
// monotone saving cutoff through an atomic. Each worker keeps only the
// best decision of its chunk and recycles the losers into its own
// context — the one they were drawn from — so no free-list grows with
// the number of evaluations; the at most innerWorkers chunk bests are
// then reduced, and the losers among them recycled, in the group's
// context.
//
// The shared cutoff preserves determinism: a published cutoff is
// strictly below the publishing candidate's saving (nextafter), and an
// evaluation aborts only when its saving provably falls below the
// cutoff — so every candidate achieving the maximum saving always
// survives. Chunks are contiguous and both levels of the reduction scan
// in index order with a strict comparison, so the lowest-index maximum
// wins, the same partner a serial scan picks regardless of scheduling.
func (st *state) argmaxParallel(ctx *gctx, a, mid int32, q []int32, theta float64, hb int, innerWorkers int) (*mergeDecision, int) {
	type chunkBest struct {
		dec *mergeDecision
		idx int
	}
	bests := make([]chunkBest, innerWorkers)
	var cutoff atomic.Uint64
	cutoff.Store(math.Float64bits(theta))
	runChunks(innerWorkers, len(q), func(k, lo, hi int) {
		wctx := st.getCtx()
		var best chunkBest
		for j := lo; j < hi; j++ {
			cut := math.Float64frombits(cutoff.Load())
			dec := st.evaluateMerge(wctx, a, q[j], mid, hb, cut)
			if dec == nil {
				continue
			}
			pub := math.Float64bits(math.Nextafter(dec.saving, math.Inf(-1)))
			for {
				old := cutoff.Load()
				if math.Float64frombits(old) >= math.Float64frombits(pub) ||
					cutoff.CompareAndSwap(old, pub) {
					break
				}
			}
			if best.dec == nil || dec.saving > best.dec.saving {
				wctx.putDec(best.dec)
				best = chunkBest{dec, j}
			} else {
				wctx.putDec(dec)
			}
		}
		bests[k] = best
		st.putCtx(wctx)
	})
	var best *mergeDecision
	bestIdx := -1
	for _, cb := range bests {
		if cb.dec == nil {
			continue
		}
		if best == nil || cb.dec.saving > best.saving {
			ctx.putDec(best)
			best = cb.dec
			bestIdx = cb.idx
		} else {
			ctx.putDec(cb.dec)
		}
	}
	return best, bestIdx
}
