// Package flat encodes a vertex partition in the flat summarization
// model of Navlakha et al. (Sect. II-A of the SLUGGER paper): supernodes
// that partition the vertices, superedges P between supernodes, and
// subnode-level corrections C+ and C-.
//
// Sect. II-B defines the hierarchical model so that the flat model is
// its height-1 case, and Encode returns it as such: a model.Summary in
// which each supernode of two or more vertices is an internal supernode
// whose children are its members. Given the partition, the optimal
// encoding is computed per supernode pair as min(|E_AB|, |T_AB| - |E_AB|
// + 1) — either list all subedges, or place a superedge and list the
// missing pairs (Sect. II-A; SWeG Sect. 3.4). The baseline summarizers
// encode their final partitions here (through flatgreedy), and the
// Theorem 1 experiment its flat comparison point.
package flat

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/graph"
	"repro/internal/model"
)

// pairKey builds a canonical map key for an unordered supernode pair.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

// Encode computes the optimal flat encoding of g for the given
// partition and returns it as a height-1 hierarchy. assign[v] must be a
// non-negative supernode index for every vertex; an index no vertex
// uses yields no supernode. The choice per supernode pair {A,B} is:
//
//	cost(list)      = |E_AB|
//	cost(superedge) = 1 + (|T_AB| - |E_AB|)
//
// whichever is smaller (ties go to the superedge, which never hurts
// and yields smaller C+ sets). A superedge becomes a p-edge between the
// two supernodes (a self-loop when A = B), a listed subedge (C+) a
// p-edge between leaves, and a missing pair under a superedge (C-) an
// n-edge between leaves, so the model's cost |P+| + |P-| + |H| is
// Eq. (11): |P| + |C+| + |C-| plus one h-edge per member of every
// supernode of two or more vertices.
func Encode(g *graph.Graph, assign []int32) *model.Summary {
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

	// super[a] is the model supernode standing for group a: a fresh
	// internal supernode, numbered n, n+1, ... in group order, for a
	// group of two or more; the lone member for a singleton. An empty
	// group gets none, and no edge names it: only pairs with subedges
	// are encoded.
	parent := make([]int32, n, n+len(groups))
	for v := range parent {
		parent[v] = -1
	}
	super := make([]int32, len(groups))
	for a, members := range groups {
		switch {
		case len(members) >= 2:
			super[a] = int32(len(parent))
			for _, v := range members {
				parent[v] = super[a]
			}
			parent = append(parent, -1)
		case len(members) == 1:
			super[a] = members[0]
		}
	}

	// Count subedges per supernode pair.
	counts := make(map[uint64]int64)
	g.ForEachEdge(func(u, v int32) {
		counts[pairKey(assign[u], assign[v])]++
	})

	// The model serializes edges in order: P, then C+, then C-, each
	// filled visiting the pairs in key order, not map order, so one
	// partition has one encoding.
	var p, cPlus, cMinus []model.Edge
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
			p = append(p, model.Edge{A: super[a], B: super[b], Sign: 1})
			if tab > eab {
				cMinus = appendMissingPairs(cMinus, g, groups[a], groups[b], a == b)
			}
		} else {
			// List all subedges as positive corrections.
			cPlus = appendPresentPairs(cPlus, g, groups[a], groups[b], a == b)
		}
	}
	return model.New(n, parent, slices.Concat(p, cPlus, cMinus))
}

// appendPresentPairs appends every subedge between ga and gb (or within
// ga when self) to dst as a p-edge.
func appendPresentPairs(dst []model.Edge, g *graph.Graph, ga, gb []int32, self bool) []model.Edge {
	if self {
		for _, u := range ga {
			for _, v := range g.Neighbors(u) {
				if _, in := slices.BinarySearch(ga, v); v > u && in {
					dst = append(dst, model.Edge{A: u, B: v, Sign: 1})
				}
			}
		}
		return dst
	}
	// Iterate the smaller side for efficiency.
	if len(ga) > len(gb) {
		ga, gb = gb, ga
	}
	for _, u := range ga {
		for _, v := range g.Neighbors(u) {
			if _, in := slices.BinarySearch(gb, v); in {
				dst = append(dst, model.Edge{A: u, B: v, Sign: 1})
			}
		}
	}
	return dst
}

// appendMissingPairs appends every non-adjacent pair between ga and gb
// (or within ga when self) to dst as an n-edge.
func appendMissingPairs(dst []model.Edge, g *graph.Graph, ga, gb []int32, self bool) []model.Edge {
	if self {
		for i, u := range ga {
			for _, v := range ga[i+1:] {
				if !g.HasEdge(u, v) {
					dst = append(dst, model.Edge{A: u, B: v, Sign: -1})
				}
			}
		}
		return dst
	}
	for _, u := range ga {
		for _, v := range gb {
			if !g.HasEdge(u, v) {
				dst = append(dst, model.Edge{A: u, B: v, Sign: -1})
			}
		}
	}
	return dst
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
