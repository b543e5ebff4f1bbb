package minhash

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 42) != Hash64(1, 42) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(1, 42) == Hash64(2, 42) {
		t.Fatal("different seeds should (almost surely) differ")
	}
	if Hash64(1, 42) == Hash64(1, 43) {
		t.Fatal("different inputs should (almost surely) differ")
	}
}

func TestHash64Spread(t *testing.T) {
	// Crude uniformity check: top bit should be set roughly half the time.
	set := 0
	for i := uint64(0); i < 1000; i++ {
		if Hash64(7, i)>>63 == 1 {
			set++
		}
	}
	if set < 400 || set > 600 {
		t.Fatalf("top-bit frequency %d/1000 suggests poor mixing", set)
	}
}

func TestGroupRespectsMaxSize(t *testing.T) {
	items := make([]int32, 1000)
	for i := range items {
		items[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(5))
	groups := Group(items, 50, 3, func(it int32, level int) uint64 {
		return Hash64(uint64(level)+1, uint64(it)) % 4 // coarse keys force re-splitting
	}, rng)
	total := 0
	for _, gset := range groups {
		if len(gset) > 50 {
			t.Fatalf("group of size %d exceeds cap", len(gset))
		}
		if len(gset) < 2 {
			t.Fatalf("singleton group emitted")
		}
		total += len(gset)
	}
	if total > 1000 {
		t.Fatalf("items duplicated across groups: %d", total)
	}
}

func TestGroupKeyFailsToDiscriminate(t *testing.T) {
	items := make([]int32, 100)
	for i := range items {
		items[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(5))
	// Constant key: must fall back to random chunking.
	groups := Group(items, 10, 3, func(int32, int) uint64 { return 1 }, rng)
	total := 0
	for _, gset := range groups {
		if len(gset) > 10 {
			t.Fatalf("group too large: %d", len(gset))
		}
		total += len(gset)
	}
	if total != 100 {
		t.Fatalf("lost items: %d", total)
	}
}

func TestGroupSmallInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := Group([]int32{7}, 10, 3, func(int32, int) uint64 { return 0 }, rng); len(got) != 0 {
		t.Fatalf("single item should produce no groups, got %v", got)
	}
	got := Group([]int32{1, 2}, 10, 3, func(int32, int) uint64 { return 0 }, rng)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("two items should form one group, got %v", got)
	}
}

// Buckets come out in ascending key order, each with its items in the
// order they had in the input.
func TestGroupBucketsInKeyOrder(t *testing.T) {
	items := []int32{9, 4, 7, 1, 8, 3, 6}
	keys := map[int32]uint64{9: 5, 4: 2, 7: 5, 1: 2, 8: 9, 3: 5, 6: 2}
	calls := 0
	got := Group(items, 3, 1, func(it int32, _ int) uint64 { calls++; return keys[it] }, nil)
	want := [][]int32{{4, 1, 6}, {9, 7, 3}} // key 9's singleton is dropped
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Group = %v, want %v", got, want)
	}
	if calls != len(keys) {
		t.Fatalf("key called %d times for %d items at one level", calls, len(keys))
	}
}

// Property: on random graphs and random groupings (some group ids
// holding no vertex), every entry of Shingles is the brute-force
// minimum of Hash64(seed, x) over the group's members and their
// neighbors, and an empty group holds ^uint64(0).
func TestShinglesMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := graph.ErdosRenyi(n, rng.Intn(1+n*(n-1)/4), seed)
		numGroups := 1 + rng.Intn(2*n)
		groupOf := make([]int32, n)
		for v := range groupOf {
			groupOf[v] = int32(rng.Intn(numGroups))
		}
		hseed := rng.Uint64()
		got := Shingles(g, groupOf, numGroups, hseed)
		if len(got) != numGroups {
			return false
		}
		for a := range got {
			want := ^uint64(0)
			for v := int32(0); v < int32(n); v++ {
				if groupOf[v] != int32(a) {
					continue
				}
				want = min(want, Hash64(hseed, uint64(v)))
				for _, w := range g.Neighbors(v) {
					want = min(want, Hash64(hseed, uint64(w)))
				}
			}
			if got[a] != want {
				t.Logf("seed %d: group %d shingle %x, want %x", seed, a, got[a], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
