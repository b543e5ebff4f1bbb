// Package flatgreedy maintains a mutable vertex grouping together with
// supernode-level subedge counts and the optimal flat-model encoding
// cost of every supernode pair. It is the workhorse of the baseline
// summarizers (Randomized, SWeG, SAGS, MoSSo), which all search over
// partitions of the vertex set under the Navlakha cost model.
package flatgreedy

import (
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/model"
)

// Grouping is a partition of the vertices of a graph with incremental
// cost bookkeeping. Group ids are stable; emptied groups become dead.
type Grouping struct {
	G       *graph.Graph
	GroupOf []int32
	Members [][]int32
	// Nbr[a][b] is the number of subedges between groups a and b
	// (within-group count under Nbr[a][a]).
	Nbr []map[int32]int64

	free []int32 // released empty group ids, recycled by NewGroup
}

// New returns the singleton grouping of g.
func New(g *graph.Graph) *Grouping {
	n := g.NumNodes()
	gr := &Grouping{
		G:       g,
		GroupOf: make([]int32, n),
		Members: make([][]int32, n),
		Nbr:     make([]map[int32]int64, n),
	}
	for v := 0; v < n; v++ {
		gr.GroupOf[v] = int32(v)
		gr.Members[v] = []int32{int32(v)}
		gr.Nbr[v] = make(map[int32]int64)
	}
	g.ForEachEdge(func(u, v int32) {
		gr.Nbr[u][v]++
		gr.Nbr[v][u]++
	})
	return gr
}

// Alive reports whether group a still has members.
func (gr *Grouping) Alive(a int32) bool { return len(gr.Members[a]) > 0 }

// Size returns the number of vertices in group a.
func (gr *Grouping) Size(a int32) int64 { return int64(len(gr.Members[a])) }

// PairCost returns the optimal flat encoding cost of the pair {a,b}:
// min(|E_ab|, 1 + |T_ab| - |E_ab|), and 0 when no subedges exist.
func (gr *Grouping) PairCost(a, b int32) int64 {
	var cnt int64
	if a == b {
		cnt = gr.Nbr[a][a]
	} else {
		cnt = gr.Nbr[a][b]
	}
	if cnt == 0 {
		return 0
	}
	var total int64
	if a == b {
		s := gr.Size(a)
		total = s * (s - 1) / 2
	} else {
		total = gr.Size(a) * gr.Size(b)
	}
	if alt := 1 + total - cnt; alt < cnt {
		return alt
	}
	return cnt
}

// Cost returns the encoding cost attributable to group a: the sum of
// PairCost over all pairs involving a (including its self pair).
func (gr *Grouping) Cost(a int32) int64 {
	var c int64
	for b := range gr.Nbr[a] {
		c += gr.PairCost(a, b)
	}
	return c
}

// MergeCost returns the Cost of the hypothetical merged group a∪b.
func (gr *Grouping) MergeCost(a, b int32) int64 {
	sa, sb := gr.Size(a), gr.Size(b)
	s := sa + sb
	selfCnt := gr.Nbr[a][a] + gr.Nbr[b][b] + gr.Nbr[a][b]
	var c int64
	if selfCnt > 0 {
		total := s * (s - 1) / 2
		c = selfCnt
		if alt := 1 + total - selfCnt; alt < c {
			c = alt
		}
	}
	pairCost := func(w int32, cnt int64) int64 {
		if cnt == 0 {
			return 0
		}
		total := s * gr.Size(w)
		if alt := 1 + total - cnt; alt < cnt {
			return alt
		}
		return cnt
	}
	for w, cnt := range gr.Nbr[a] {
		if w == a || w == b {
			continue
		}
		c += pairCost(w, cnt+gr.Nbr[b][w])
	}
	for w, cnt := range gr.Nbr[b] {
		if w == a || w == b {
			continue
		}
		if _, seen := gr.Nbr[a][w]; seen {
			continue // already counted above
		}
		c += pairCost(w, cnt)
	}
	return c
}

// Saving returns the normalized cost reduction of merging a and b,
// analogous to Eq. (8): 1 - cost(a∪b) / (cost(a)+cost(b)-cost(a,b)).
// Returns a negative value when the denominator is non-positive.
func (gr *Grouping) Saving(a, b int32) float64 {
	denom := gr.Cost(a) + gr.Cost(b) - gr.PairCost(a, b)
	if denom <= 0 {
		return -1
	}
	return 1 - float64(gr.MergeCost(a, b))/float64(denom)
}

// Merge folds group b into group a (a keeps its id) and returns a.
func (gr *Grouping) Merge(a, b int32) int32 {
	if a == b || !gr.Alive(a) || !gr.Alive(b) {
		panic("flatgreedy: invalid merge")
	}
	for _, v := range gr.Members[b] {
		gr.GroupOf[v] = a
	}
	gr.Members[a] = append(gr.Members[a], gr.Members[b]...)
	gr.Members[b] = nil
	for w, cnt := range gr.Nbr[b] {
		switch w {
		case b, a:
			gr.Nbr[a][a] += cnt
		default:
			gr.Nbr[a][w] += cnt
			gr.Nbr[w][a] += cnt
			delete(gr.Nbr[w], b)
		}
	}
	delete(gr.Nbr[a], b)
	gr.Nbr[b] = nil
	return a
}

// addPair adjusts the subedge count between groups x and y.
func (gr *Grouping) addPair(x, y int32, delta int64) {
	if x == y {
		gr.Nbr[x][x] += delta
		if gr.Nbr[x][x] == 0 {
			delete(gr.Nbr[x], x)
		}
		return
	}
	gr.Nbr[x][y] += delta
	gr.Nbr[y][x] += delta
	if gr.Nbr[x][y] == 0 {
		delete(gr.Nbr[x], y)
		delete(gr.Nbr[y], x)
	}
}

// MoveVertex moves vertex v into group 'to' (which must be alive or a
// freshly allocated empty group), updating all counts.
func (gr *Grouping) MoveVertex(v, to int32) {
	from := gr.GroupOf[v]
	if from == to {
		return
	}
	// Detach from old group.
	m := gr.Members[from]
	for i, u := range m {
		if u == v {
			m[i] = m[len(m)-1]
			gr.Members[from] = m[:len(m)-1]
			break
		}
	}
	gr.Members[to] = append(gr.Members[to], v)
	gr.GroupOf[v] = to
	for _, w := range gr.G.Neighbors(v) {
		if w == v {
			continue
		}
		// gw is unaffected by the move because w != v.
		gw := gr.GroupOf[w]
		gr.addPair(from, gw, -1)
		gr.addPair(to, gw, 1)
	}
}

// NewGroup returns an empty group id: a recycled one from ReleaseGroup
// when available, else a freshly allocated slot.
func (gr *Grouping) NewGroup() int32 {
	if n := len(gr.free); n > 0 {
		id := gr.free[n-1]
		gr.free = gr.free[:n-1]
		return id
	}
	id := int32(len(gr.Members))
	gr.Members = append(gr.Members, []int32{})
	gr.Nbr = append(gr.Nbr, make(map[int32]int64))
	return id
}

// ReleaseGroup returns an empty group id to the free list for reuse by
// NewGroup — without it, long streams whose speculative escape
// proposals get reverted would grow Members/Nbr without bound. Panics
// if the group still has members or subedge counts.
func (gr *Grouping) ReleaseGroup(id int32) {
	if len(gr.Members[id]) != 0 || len(gr.Nbr[id]) != 0 {
		panic("flatgreedy: ReleaseGroup of a non-empty group")
	}
	if gr.Nbr[id] == nil {
		// Groups killed by Merge have a nil count map; make the slot
		// reusable by NewGroup callers, which expect a live map.
		gr.Nbr[id] = make(map[int32]int64)
	}
	gr.free = append(gr.free, id)
}

// Encode produces the optimal flat encoding of the current grouping,
// as a height-1 hierarchy (flat.Encode).
func (gr *Grouping) Encode() *model.Summary {
	return flat.Encode(gr.G, flat.Compact(gr.GroupOf))
}
