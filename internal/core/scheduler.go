package core

// This file implements the candidate-group scheduler, the only
// parallelism of a build: one merging iteration of Algorithm 1 runs the
// (root-disjoint) candidate groups of Sect. III-B2 on a few workers. Two
// groups conflict when a root of one holds a cross entry to a root of
// the other — then one group's commits would rewrite state the other
// group's evaluations read. Conflicting groups go to different waves, in
// index order; groups within a wave touch disjoint decision-relevant
// state, so they commute and any execution interleaving reproduces the
// serial result bit for bit.
//
// Determinism across worker counts rests on four invariants:
//   - group order and membership are deterministic (sorted min-hash
//     buckets over deterministic supernode ids);
//   - every group draws from its own RNG, seeded by (run seed,
//     iteration, group index) — never from a shared stream;
//   - supernode ids are reserved per group up front, so the ids a
//     group's merges allocate do not depend on scheduling;
//   - a group's wave is later than that of every earlier group it
//     conflicts with (planWaves), preserving the original relative order
//     of every conflicting pair.
// Mutations that non-conflicting groups share — the neighbor list and
// pcost of a root adjacent to two groups — are commutative (disjoint
// list elements in a sorted list, additive counters) and serialized by
// the state's striped locks.

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/minhash"
)

// planWaves partitions the group indices into waves of pairwise
// non-conflicting groups, each wave ascending. A group is deferred past
// every earlier-indexed group it shares a cross entry with:
//
//	wave(g) = 1 + max{wave(g') : g' < g, g' conflicts with g}   (0 if none)
//
// which keeps every conflicting pair in its original relative order and
// so makes the parallel schedule equivalent to processing groups
// 0..k-1 serially. Neighbour lists are symmetric (checkAdjacency), so a
// conflict is always seen from the later group's side and one sweep in
// group order settles every group.
func (st *state) planWaves(groups [][]int32) [][]int32 {
	groupOf := make([]int32, st.next)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, grp := range groups {
		for _, r := range grp {
			groupOf[r] = int32(gi)
		}
	}
	waveOf := make([]int32, len(groups))
	var sizes []int
	for gi, grp := range groups {
		w := int32(0)
		for _, r := range grp {
			for _, nb := range st.nbrs[r] {
				if gj := groupOf[nb.c]; gj >= 0 && gj < int32(gi) && waveOf[gj] >= w {
					w = waveOf[gj] + 1
				}
			}
		}
		waveOf[gi] = w
		if int(w) == len(sizes) {
			sizes = append(sizes, 0)
		}
		sizes[w]++
	}
	// Lay the waves out in one backing array, filled in group order.
	backing := make([]int32, len(groups))
	waves := make([][]int32, len(sizes))
	for w, n := range sizes {
		waves[w], backing = backing[:0:n], backing[n:]
	}
	for gi, w := range waveOf {
		waves[w] = append(waves[w], int32(gi))
	}
	return waves
}

// groupRNG returns the deterministic RNG of one candidate group: the
// context's generator, reseeded with two words — constant time, where a
// scale-free graph has thousands of groups of two or three roots an
// iteration. The group's position is hashed into the first word because
// most groups take a single draw, and the first draws of adjacent
// positions must not correlate.
func (ctx *gctx) groupRNG(seed int64, iter, gi int) *rand.Rand {
	pos := uint64(iter)<<32 | uint64(gi)
	ctx.pcg.Seed(minhash.Hash64(uint64(seed)^0x5851F42D4C957F2D, pos), pos)
	return ctx.rng
}

// runIteration executes one merging iteration over the candidate
// groups: reserves per-group supernode-id blocks, plans the waves, and
// runs each wave on min(workers, len(wave)) goroutines, each holding one
// context and pulling the wave's groups. Returns the total number of
// merges. With workers == 1 the groups run serially in order —
// producing byte-identical state to any parallel schedule.
//
// Cancellation is checked between groups; on a cancelled ctx the
// iteration stops starting new groups, waits for in-flight workers to
// drain, and returns ctx.Err(). The summarization state is abandoned by
// the caller, so no cleanup beyond draining is needed.
func (st *state) runIteration(ctx context.Context, groups [][]int32, iter int, seed int64, theta float64, hb int) (int, error) {
	if len(groups) == 0 {
		return 0, ctx.Err()
	}
	// Reserve the worst-case id block of every group up front, in group
	// order, so allocated ids are schedule-independent.
	total := 0
	for _, grp := range groups {
		total += len(grp) - 1
	}
	ids := st.reserveIDs(total)
	blocks := make([][]int32, len(groups))
	off := 0
	for gi, grp := range groups {
		blocks[gi] = ids[off : off+len(grp)-1]
		off += len(grp) - 1
	}

	mergesPer := make([]int, len(groups))
	tally := func() int {
		merges := 0
		for _, m := range mergesPer {
			merges += m
		}
		return merges
	}
	if st.workers <= 1 {
		gc := st.getCtx()
		for gi, grp := range groups {
			if err := ctx.Err(); err != nil {
				st.putCtx(gc)
				return tally(), err
			}
			mergesPer[gi] = st.processGroup(grp, gc.groupRNG(seed, iter, gi), blocks[gi], gc, theta, hb)
		}
		st.putCtx(gc)
	} else {
		// One context per worker for the whole iteration; worker 0 is this
		// goroutine.
		gcs := make([]*gctx, min(st.workers, len(groups)))
		for k := range gcs {
			gcs[k] = st.getCtx()
		}
		for _, wave := range st.planWaves(groups) {
			// Groups of a wave commute and write disjoint mergesPer slots,
			// so the workers pull them in whatever order they get to them.
			var next atomic.Int32
			pull := func(gc *gctx) {
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(wave) {
						return
					}
					gi := wave[i]
					mergesPer[gi] = st.processGroup(groups[gi], gc.groupRNG(seed, iter, int(gi)), blocks[gi], gc, theta, hb)
				}
			}
			var wg sync.WaitGroup
			for _, gc := range gcs[1:min(len(gcs), len(wave))] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pull(gc)
				}()
			}
			pull(gcs[0])
			wg.Wait()
			if ctx.Err() != nil {
				break
			}
		}
		for _, gc := range gcs {
			st.putCtx(gc)
		}
		if err := ctx.Err(); err != nil {
			return tally(), err
		}
	}

	// Recycle the ids of merges that never happened.
	merges := 0
	for gi := range groups {
		merges += mergesPer[gi]
		st.releaseIDs(blocks[gi][mergesPer[gi]:])
	}
	return merges, nil
}
