package graph

// Edge-cut partitioning: the first stage of the sharded data path. A
// Partition splits a graph into k vertex-disjoint induced subgraphs
// ("shards") plus the boundary edges crossing between shards, with
// local<->global id maps. Per-shard summarization then covers every
// intra-shard edge and the boundary sidecar covers the rest, so the
// union is lossless by construction.
//
// The partitioner is the linear deterministic greedy (LDG) streaming
// heuristic of Stanton & Kliot (KDD 2012): vertices are scanned in id
// order and each is assigned to the shard holding most of its
// already-placed neighbors, damped by how full that shard is. It is
// deterministic (no randomness, no map iteration), single-pass, and
// respects a hard balance cap of ceil(n/k) vertices per shard.

import "fmt"

// Partition is the result of splitting a graph into k shards.
type Partition struct {
	// K is the number of shards.
	K int
	// Subgraphs[s] is the induced subgraph of shard s in local ids
	// 0..len(GlobalID[s])-1.
	Subgraphs []*Graph
	// GlobalID[s][l] is the global id of shard s's local vertex l.
	// Each list is strictly ascending, so translating a sorted local
	// neighbor list yields a sorted global one.
	GlobalID [][]int32
	// ShardOf[v] is the shard owning global vertex v.
	ShardOf []int32
	// LocalOf[v] is v's local id within ShardOf[v].
	LocalOf []int32
	// Boundary holds every cross-shard edge {u,v} with u < v, in
	// lexicographic order (global ids).
	Boundary [][2]int32
}

// EdgeCut returns the number of edges crossing between shards.
func (p *Partition) EdgeCut() int { return len(p.Boundary) }

// ShardSizes returns the vertex count of each shard.
func (p *Partition) ShardSizes() []int {
	sizes := make([]int, p.K)
	for s, ids := range p.GlobalID {
		sizes[s] = len(ids)
	}
	return sizes
}

// PartitionGraph splits g into k shards. It requires 1 <= k <=
// max(NumNodes, 1); every shard is guaranteed non-empty (when the graph
// itself is non-empty) and no shard exceeds ceil(n/k) vertices. The
// result is deterministic: the same graph and k always produce the same
// partition. k = 1 yields the identity partition — Subgraphs[0] equals
// g and the boundary is empty.
func PartitionGraph(g *Graph, k int) (*Partition, error) {
	n := g.NumNodes()
	if k < 1 {
		return nil, fmt.Errorf("graph: partition into %d shards (want k >= 1)", k)
	}
	if k > n && !(n == 0 && k == 1) {
		return nil, fmt.Errorf("graph: cannot partition %d vertices into %d non-empty shards", n, k)
	}
	p := &Partition{
		K:        k,
		ShardOf:  make([]int32, n),
		LocalOf:  make([]int32, n),
		GlobalID: make([][]int32, k),
	}
	p.assign(g, k)

	// Local ids: rank within the shard. Vertices were appended to
	// GlobalID in ascending global order, so each list is sorted.
	for s, ids := range p.GlobalID {
		for l, v := range ids {
			p.ShardOf[v] = int32(s)
			p.LocalOf[v] = int32(l)
		}
	}

	// Induced subgraphs and the boundary sidecar. ForEachEdge iterates
	// in lexicographic (u, v) order, so Boundary comes out sorted.
	builders := make([]*Builder, k)
	for s := range builders {
		builders[s] = NewBuilder(len(p.GlobalID[s]))
	}
	g.ForEachEdge(func(u, v int32) {
		su, sv := p.ShardOf[u], p.ShardOf[v]
		if su == sv {
			builders[su].AddEdge(p.LocalOf[u], p.LocalOf[v])
		} else {
			p.Boundary = append(p.Boundary, [2]int32{u, v})
		}
	})
	p.Subgraphs = make([]*Graph, k)
	for s, b := range builders {
		p.Subgraphs[s] = b.Build()
	}
	return p, nil
}

// assign fills GlobalID with the LDG vertex-to-shard assignment.
func (p *Partition) assign(g *Graph, k int) {
	n := g.NumNodes()
	if k == 1 {
		ids := make([]int32, n)
		for v := range ids {
			ids[v] = int32(v)
		}
		p.GlobalID[0] = ids
		return
	}
	capacity := (n + k - 1) / k
	size := make([]int, k)
	empty := k
	// cnt[s] counts v's already-assigned neighbors in shard s; the
	// touched list makes the reset O(deg) instead of O(k).
	cnt := make([]int, k)
	touched := make([]int32, 0, k)
	for v := 0; v < n; v++ {
		// Force the remaining vertices into still-empty shards when not
		// doing so would leave one empty (guarantees k non-empty shards).
		if empty > 0 && n-v <= empty {
			for s := 0; s < k; s++ {
				if size[s] == 0 {
					p.place(int32(v), s, size, &empty)
					break
				}
			}
			continue
		}
		for _, s := range touched {
			cnt[s] = 0
		}
		touched = touched[:0]
		for _, u := range g.Neighbors(int32(v)) {
			if u >= int32(v) {
				break // neighbors are sorted; the rest are unassigned
			}
			s := p.ShardOf[u]
			if cnt[s] == 0 {
				touched = append(touched, s)
			}
			cnt[s]++
		}
		// Score = neighbors * free slots (the integer form of LDG's
		// cnt * (1 - size/capacity)); ties go to the smaller shard, then
		// the smaller index, keeping the scan deterministic.
		best, bestScore := -1, -1
		for s := 0; s < k; s++ {
			if size[s] >= capacity {
				continue
			}
			score := cnt[s] * (capacity - size[s])
			if best < 0 || score > bestScore ||
				(score == bestScore && size[s] < size[best]) {
				best, bestScore = s, score
			}
		}
		p.place(int32(v), best, size, &empty)
	}
}

// place assigns global vertex v to shard s, maintaining the size and
// empty-shard counters. ShardOf is updated immediately so later
// vertices see v as assigned.
func (p *Partition) place(v int32, s int, size []int, empty *int) {
	if size[s] == 0 {
		*empty--
	}
	size[s]++
	p.GlobalID[s] = append(p.GlobalID[s], v)
	p.ShardOf[v] = int32(s)
}
