// Package minhash provides the seeded hashing, min-hash shingle and
// size-capped grouping utilities shared by SLUGGER, SWeG and SAGS
// (candidate generation, Sect. III-B2 of the SLUGGER paper; SWeG
// Sect. 3; SAGS LSH bucketing).
package minhash

import (
	"math/rand"
	"slices"
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

// Group partitions the items (arbitrary int32 ids) into groups of size
// at most maxGroup. Items are first grouped by key(item, level); groups
// exceeding maxGroup are re-split with the next level's key, up to
// maxLevels; any still-oversized group is split into random chunks.
// This mirrors SLUGGER/SWeG candidate generation: "iteratively divides
// root nodes using shingle values at most 10 times and then randomly so
// that each candidate set consists of at most 500 nodes".
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
		buckets := make(map[uint64][]int32)
		for _, it := range group {
			k := key(it, level)
			buckets[k] = append(buckets[k], it)
		}
		if len(buckets) == 1 {
			// Key failed to discriminate; go straight to random chunks.
			split(group, maxLevels)
			return
		}
		// Recurse in sorted key order: map iteration order is random,
		// and callers (the parallel group pipeline) rely on the output
		// group order — and hence per-group RNG streams — being
		// deterministic for a fixed seed.
		keys := make([]uint64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			split(buckets[k], level+1)
		}
	}
	split(items, 0)
	return out
}
