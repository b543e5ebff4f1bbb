// Package minhash provides the seeded hashing, min-hash shingle and
// size-capped grouping utilities shared by SLUGGER, SWeG and SAGS
// (candidate generation, Sect. III-B2 of the SLUGGER paper; SWeG
// Sect. 3; SAGS LSH bucketing).
package minhash

import (
	"math/rand"

	"repro/internal/graph"
)

// Hash64 mixes a 64-bit value with a seed using the SplitMix64
// finalizer. It behaves as a random permutation fingerprint: for a
// fixed seed, ordering values by Hash64 yields a pseudo-random
// permutation.
func Hash64(seed, x uint64) uint64 {
	z := x + seed*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// VertexShingle is the 1-hop shingle of vertex v (Lemma 2 of the
// SLUGGER paper): min(h(v), min over w in N(v) of h(w)), where h is
// Hash64 under seed.
func VertexShingle(g *graph.Graph, v int32, seed uint64) uint64 {
	f := Hash64(seed, uint64(v))
	for _, w := range g.Neighbors(v) {
		if h := Hash64(seed, uint64(w)); h < f {
			f = h
		}
	}
	return f
}

// Shingles folds the vertex shingles of g into groups in O(|V|+|E|):
// entry a is the minimum VertexShingle over the vertices v with
// groupOf[v] == a, and ^uint64(0) for a group with no vertex.
func Shingles(g *graph.Graph, groupOf []int32, numGroups int, seed uint64) []uint64 {
	sh := make([]uint64, numGroups)
	for i := range sh {
		sh[i] = ^uint64(0)
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if f := VertexShingle(g, v, seed); f < sh[groupOf[v]] {
			sh[groupOf[v]] = f
		}
	}
	return sh
}

// keyed is an item with its key at the level being split.
type keyed struct {
	key  uint64
	item int32
}

// sortByKey sorts ks by key, keeping the order of items with equal keys:
// a radix sort from the least significant byte up, through tmp (of the
// same length). On the 5 000 level-0 keys of a scale-free graph's roots
// it takes a quarter of the time of slices.SortStableFunc, which would
// be slower than the map of buckets this replaced.
func sortByKey(ks, tmp []keyed) {
	for shift := 0; shift < 64; shift += 8 {
		var next [256]int // where the next item of each byte value goes
		for _, k := range ks {
			next[byte(k.key>>shift)]++
		}
		sum := 0
		for b, n := range next {
			next[b], sum = sum, sum+n
		}
		for _, k := range ks {
			b := byte(k.key >> shift)
			tmp[next[b]] = k
			next[b]++
		}
		ks, tmp = tmp, ks
	}
	// Eight passes: the sorted items are back in the caller's ks.
}

// Group partitions the items (arbitrary int32 ids) into groups of size
// at most maxGroup. Items are first grouped by key(item, level); groups
// exceeding maxGroup are re-split with the next level's key, up to
// maxLevels; any still-oversized group is split into random chunks.
// This mirrors SLUGGER/SWeG candidate generation: "iteratively divides
// root nodes using shingle values at most 10 times and then randomly so
// that each candidate set consists of at most 500 nodes". The groups
// returned are subslices of items, which is reordered.
func Group(items []int32, maxGroup, maxLevels int, key func(item int32, level int) uint64, rng *rand.Rand) [][]int32 {
	if maxGroup < 2 {
		maxGroup = 2
	}
	var out [][]int32
	var split func(group []int32, level int)
	split = func(group []int32, level int) {
		if len(group) <= maxGroup {
			if len(group) > 1 {
				out = append(out, group)
			}
			return
		}
		if level >= maxLevels {
			// Random chunking.
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			for start := 0; start < len(group); start += maxGroup {
				end := start + maxGroup
				if end > len(group) {
					end = len(group)
				}
				if end-start > 1 {
					out = append(out, group[start:end])
				}
			}
			return
		}
		// Bucket by key with one stable sort and a cut at every key
		// change: buckets come out in ascending key order with their items
		// in the order they had — callers (the parallel group pipeline)
		// rely on the output group order, and hence per-group RNG
		// streams, being deterministic for a fixed seed.
		ks := make([]keyed, 2*len(group))
		ks, tmp := ks[:len(group)], ks[len(group):]
		for i, it := range group {
			ks[i] = keyed{key(it, level), it}
		}
		sortByKey(ks, tmp)
		if ks[0].key == ks[len(ks)-1].key {
			// Key failed to discriminate; go straight to random chunks.
			split(group, maxLevels)
			return
		}
		for i, k := range ks {
			group[i] = k.item
		}
		for lo, hi := 0, 1; lo < len(ks); lo, hi = hi, hi+1 {
			for hi < len(ks) && ks[hi].key == ks[lo].key {
				hi++
			}
			split(group[lo:hi], level+1)
		}
	}
	split(items, 0)
	return out
}
