package core

// This file implements the candidate-group scheduler: one merging
// iteration of Algorithm 1 dispatches the (root-disjoint) candidate
// groups of Sect. III-B2 onto a worker pool. Two groups conflict when a
// root of one holds a cross entry to a root of the other — then one
// group's commits would rewrite state the other group's evaluations
// read. Conflicting groups are deferred to later waves; groups within a
// wave touch disjoint decision-relevant state, so they commute and any
// execution interleaving reproduces the serial result bit for bit.
//
// Determinism across worker counts rests on four invariants:
//   - group order and membership are deterministic (sorted min-hash
//     buckets over deterministic supernode ids);
//   - every group draws from its own RNG, seeded by (run seed,
//     iteration, group index) — never from a shared stream;
//   - supernode ids are reserved per group up front, so the ids a
//     group's merges allocate do not depend on scheduling;
//   - the wave partition defers a group that conflicts with ANY
//     not-yet-scheduled earlier group, preserving the original relative
//     order of every conflicting pair.
// Mutations that non-conflicting groups share — the neighbor list and
// pcost of a root adjacent to two groups — are commutative (disjoint
// list elements in a sorted list, additive counters) and serialized by
// the state's striped locks.

import (
	"context"
	"math/rand/v2"
	"sync"

	"repro/internal/minhash"
)

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
// groups: reserves per-group supernode-id blocks, partitions groups
// into non-conflicting waves, and processes each wave on the worker
// pool. Returns the total number of merges. With workers == 1 the
// groups run serially in order — producing byte-identical state to any
// parallel schedule.
//
// Cancellation is checked between groups (serial) and between group
// dispatches (parallel); on a cancelled ctx the iteration stops
// scheduling new groups, waits for in-flight workers to drain, and
// returns ctx.Err(). The summarization state is abandoned by the
// caller, so no cleanup beyond draining is needed.
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
			mergesPer[gi] = st.processGroup(grp, gc.groupRNG(seed, iter, gi), blocks[gi], gc, theta, hb, 1)
		}
		st.putCtx(gc)
	} else {
		waves := buildWaves(st.groupConflicts(groups), len(groups))
		for _, wave := range waves {
			inner := 1
			if len(wave) < st.workers {
				inner = (st.workers + len(wave) - 1) / len(wave)
			}
			sem := make(chan struct{}, st.workers)
			var wg sync.WaitGroup
			for _, gi := range wave {
				if ctx.Err() != nil {
					break
				}
				wg.Add(1)
				sem <- struct{}{}
				go func(gi int32) {
					defer wg.Done()
					defer func() { <-sem }()
					gc := st.getCtx()
					mergesPer[gi] = st.processGroup(groups[gi], gc.groupRNG(seed, iter, int(gi)), blocks[gi], gc, theta, hb, inner)
					st.putCtx(gc)
				}(gi)
			}
			wg.Wait()
			if err := ctx.Err(); err != nil {
				return tally(), err
			}
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
