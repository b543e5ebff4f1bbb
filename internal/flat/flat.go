// Package flat implements the previous (non-hierarchical) graph
// summarization model of Navlakha et al. (Sect. II-A of the SLUGGER
// paper): G~ = (S, P, C+, C-), where S is a partition of the vertices
// into disjoint supernodes, P is a set of superedges, and C+/C- are
// subnode-level correction edges.
//
// Given the partition, the optimal encoding is computed per supernode
// pair as min(|E_AB|, |T_AB| - |E_AB| + 1) — either list all subedges,
// or place a superedge and list the missing pairs (Sect. II-A; SWeG
// Sect. 3.4). This package is used by all baseline algorithms and by
// SLUGGER's pruning substep 3.
package flat

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
)

// Summary is a flat graph summarization model.
type Summary struct {
	N      int        // number of vertices in the input graph
	Assign []int32    // vertex -> supernode index (0..len(Groups)-1)
	Groups [][]int32  // supernode -> sorted member vertices
	P      [][2]int32 // superedges (a <= b; a == b is a self-loop)
	CPlus  [][2]int32 // positive subnode corrections (u < v)
	CMinus [][2]int32 // negative subnode corrections (u < v)
}

// Cost returns the encoding cost per Eq. (11) of the paper:
// |P| + |C+| + |C-| + |H*|, where |H*| counts one hierarchy edge per
// subnode of each non-singleton supernode (the height-1 trees that
// record supernode membership).
func (s *Summary) Cost() int64 {
	cost := int64(len(s.P) + len(s.CPlus) + len(s.CMinus))
	for _, g := range s.Groups {
		if len(g) >= 2 {
			cost += int64(len(g))
		}
	}
	return cost
}

// RelativeSize returns Cost / |E| (Eq. (10)/(11)).
func (s *Summary) RelativeSize(edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return float64(s.Cost()) / float64(edges)
}

// NumSupernodes returns the number of supernodes (including singletons).
func (s *Summary) NumSupernodes() int { return len(s.Groups) }

// pairKey builds a canonical map key for an unordered supernode pair.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

// Encode computes the optimal flat encoding of g for the given
// partition. assign[v] must be a dense supernode index for every
// vertex. The choice per supernode pair {A,B} is:
//
//	cost(list)      = |E_AB|
//	cost(superedge) = 1 + (|T_AB| - |E_AB|)
//
// whichever is smaller (ties go to the superedge, which never hurts
// and yields smaller C+ sets).
func Encode(g *graph.Graph, assign []int32) *Summary {
	n := g.NumNodes()
	if len(assign) != n {
		panic(fmt.Sprintf("flat: assign has %d entries for %d vertices", len(assign), n))
	}
	numGroups := int32(0)
	for _, a := range assign {
		if a < 0 {
			panic("flat: negative supernode index")
		}
		if a+1 > numGroups {
			numGroups = a + 1
		}
	}
	groups := make([][]int32, numGroups)
	for v := 0; v < n; v++ {
		groups[assign[v]] = append(groups[assign[v]], int32(v))
	}

	// Count subedges per supernode pair.
	counts := make(map[uint64]int64)
	g.ForEachEdge(func(u, v int32) {
		counts[pairKey(assign[u], assign[v])]++
	})

	// P, C+ and C- are serialized in append order: visit the pairs in
	// key order, not map order, so one partition has one encoding.
	s := &Summary{N: n, Assign: assign, Groups: groups}
	for _, key := range slices.Sorted(maps.Keys(counts)) {
		eab := counts[key]
		a := int32(key >> 32)
		b := int32(uint32(key))
		var tab int64
		if a == b {
			sz := int64(len(groups[a]))
			tab = sz * (sz - 1) / 2
		} else {
			tab = int64(len(groups[a])) * int64(len(groups[b]))
		}
		if 1+tab-eab <= eab {
			// Superedge plus negative corrections.
			s.P = append(s.P, [2]int32{a, b})
			if tab > eab {
				appendMissingPairs(&s.CMinus, g, groups[a], groups[b], a == b)
			}
		} else {
			// List all subedges as positive corrections.
			appendPresentPairs(&s.CPlus, g, groups[a], groups[b], a == b)
		}
	}
	return s
}

// appendPresentPairs appends every subedge between ga and gb (or within
// ga when self) to dst, with u < v.
func appendPresentPairs(dst *[][2]int32, g *graph.Graph, ga, gb []int32, self bool) {
	if self {
		for _, u := range ga {
			for _, v := range g.Neighbors(u) {
				if v > u && inSorted(ga, v) {
					*dst = append(*dst, [2]int32{u, v})
				}
			}
		}
		return
	}
	// Iterate the smaller side for efficiency.
	if len(ga) > len(gb) {
		ga, gb = gb, ga
	}
	for _, u := range ga {
		for _, v := range g.Neighbors(u) {
			if inSorted(gb, v) {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				*dst = append(*dst, [2]int32{a, b})
			}
		}
	}
}

// appendMissingPairs appends every non-adjacent pair between ga and gb
// (or within ga when self) to dst, with u < v.
func appendMissingPairs(dst *[][2]int32, g *graph.Graph, ga, gb []int32, self bool) {
	if self {
		for i, u := range ga {
			for _, v := range ga[i+1:] {
				if !g.HasEdge(u, v) {
					*dst = append(*dst, [2]int32{u, v})
				}
			}
		}
		return
	}
	for _, u := range ga {
		for _, v := range gb {
			if !g.HasEdge(u, v) {
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				*dst = append(*dst, [2]int32{a, b})
			}
		}
	}
}

func inSorted(sorted []int32, x int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == x
}

// Decode reconstructs the original graph from the summary. It is the
// correctness oracle for all baseline summarizers.
func (s *Summary) Decode() *graph.Graph {
	present := make(map[[2]int32]bool)
	add := func(u, v int32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		present[[2]int32{u, v}] = true
	}
	del := func(u, v int32) {
		if u > v {
			u, v = v, u
		}
		delete(present, [2]int32{u, v})
	}
	for _, pe := range s.P {
		ga, gb := s.Groups[pe[0]], s.Groups[pe[1]]
		if pe[0] == pe[1] {
			for i, u := range ga {
				for _, v := range ga[i+1:] {
					add(u, v)
				}
			}
		} else {
			for _, u := range ga {
				for _, v := range gb {
					add(u, v)
				}
			}
		}
	}
	for _, e := range s.CPlus {
		add(e[0], e[1])
	}
	for _, e := range s.CMinus {
		del(e[0], e[1])
	}
	b := graph.NewBuilder(s.N)
	for e := range present {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Compact renumbers an arbitrary (possibly sparse) group labeling into
// dense indices 0..k-1, returning the dense assignment.
func Compact(labels []int32) []int32 {
	remap := make(map[int32]int32)
	out := make([]int32, len(labels))
	for i, l := range labels {
		id, ok := remap[l]
		if !ok {
			id = int32(len(remap))
			remap[l] = id
		}
		out[i] = id
	}
	return out
}
