// Package core implements SLUGGER (Scalable Lossless Summarization of
// Graphs with Hierarchy), the algorithm of Sect. III of the paper. It
// greedily merges root supernodes while maintaining an exact signed-edge
// encoding of the input graph, then prunes supernodes that do not
// contribute to a succinct encoding.
package core

import (
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// sedge is a signed superedge; sign is +1 (p-edge) or -1 (n-edge).
type sedge struct {
	a, b int32
	sign int8
}

// blockCounts is the 2x2 table of ground-truth subedge counts between
// the atoms of two root trees: bc[i][j] counts the subedges between
// atom i of the row root and atom j of the column root (see atomsOf).
// The row and column of an absent second atom are zero.
type blockCounts [2][2]int64

// total returns the subedge count between the two trees.
func (bc blockCounts) total() int64 {
	return bc[0][0] + bc[0][1] + bc[1][0] + bc[1][1]
}

// mergedRows returns the block counts of the merged tree M = A∪B
// towards a third root C, given those of A and of B towards C: the
// atoms of M are A and B, so row 0 is A's rows summed and row 1 is B's.
func mergedRows(bcA, bcB blockCounts) blockCounts {
	return blockCounts{
		{bcA[0][0] + bcA[1][0], bcA[0][1] + bcA[1][1]},
		{bcB[0][0] + bcB[1][0], bcB[0][1] + bcB[1][1]},
	}
}

// crossEntry holds, for one unordered pair of root supernodes, the
// signed edges currently encoding the bipartite adjacency between the
// two hierarchy trees, and the ground-truth subedge counts between
// their atoms — the only graph-derived input of the Fig. 4 panels. The
// atoms of a root never change while it is a root, so the counts stay
// valid for the lifetime of the entry; a merge builds the new entries
// of M from those of A and B (commitMerge) without revisiting the graph.
// What scoring reads of the pair is copied into the two roots' neighbour
// records (nbr); the entry itself is read by planning and commits, and
// by scoring for within: computeWithinPlan's cost for the pair (either
// way round), fixed while both roots live, set when first scored (an
// adjacent pair's within(M) holds ≥ 1 edge, and at most its subedges, so
// 0 means unset).
//
// Invariant: the edges of an entry always encode the bipartite
// adjacency between the trees exactly, with per-subnode-pair net counts
// in {0,1}.
type crossEntry struct {
	edges  []sedge
	blocks blockCounts // stored in one orientation; read through counts
	row    int32       // the root of the pair whose atoms index the rows of blocks
	within int32       // memoized within-plan cost, 0 until scored
}

// numEdges returns the number of signed edges currently encoding the
// adjacency between the pair's trees (0 for a nil entry).
func (e *crossEntry) numEdges() int64 {
	if e == nil {
		return 0
	}
	return int64(len(e.edges))
}

// counts returns the pair's block counts with the atoms of root x (one
// of the entry's two roots) as rows. A nil entry — the roots are not
// adjacent — has all-zero counts.
func (e *crossEntry) counts(x int32) blockCounts {
	switch {
	case e == nil:
		return blockCounts{}
	case e.row == x:
		return e.blocks
	}
	b := e.blocks
	return blockCounts{{b[0][0], b[1][0]}, {b[0][1], b[1][1]}}
}

// unborn marks a supernode id that has been reserved for a candidate
// group but not (yet) allocated by a merge. Reserved-but-unused ids are
// recycled through the free list, so the id space stays O(n) even
// though every group reserves its worst-case id block up front.
const unborn = int32(-2)

// numStripes is the size of the striped mutex table protecting
// neighbor-list mutations on roots outside the committing group. Powers
// of two keep the stripe computation a mask.
const numStripes = 64

// state is the mutable summarization state of Algorithm 1.
// Supernode ids 0..n-1 are the input vertices (leaves); merges allocate
// fresh ids upward from per-group reserved blocks. During the merge
// phase the hierarchy is binary.
type state struct {
	g *graph.Graph
	n int32 // number of vertices

	// Hierarchy (indexed by supernode id).
	parent []int32    // -1 root, -2 (unborn) reserved-but-unallocated
	child  [][2]int32 // {-1,-1} for leaves
	size   []int32    // number of subnodes
	height []int32    // height of the subtree rooted here
	verts  [][]int32  // subnodes (leaves alias a shared backing array)

	// Per-vertex locator.
	rootOf []int32 // current root supernode of each vertex

	// Encoding bookkeeping (valid at root ids only).
	hCost  []int64   // h-edges in the subtree (2 per merge)
	within [][]sedge // edges with both endpoints inside the tree
	pcost  []int64   // len(within) + sum of incident cross entries
	selfGT []int64   // ground-truth subedge count within the tree
	nbrs   [][]nbr   // adjacent roots and the shared entries, ascending by root id

	// The cross entries, named by index. newState puts the i-th edge's
	// entry at i. At most |E| root pairs are adjacent (each holds a
	// subedge), and a commit builds each new (M,C) entry in the slot of the
	// (A,C) or (B,C) entry it replaces and zeroes the slots it leaves, so
	// the table never grows and entries never move.
	ents []crossEntry

	next    int32   // id high-water mark
	free    []int32 // recycled reserved-but-unused ids
	rng     *rand.Rand
	workers int // worker pool size for the group pipeline (1 = serial)

	// Per-goroutine scratch contexts (see pool.go).
	ctxPool sync.Pool

	// Striped locks serializing neighbor-list mutations on roots shared
	// between concurrently-committing groups.
	nbrMu [numStripes]sync.Mutex
}

// stripe returns the mutex guarding neighbor-list mutations on root c.
func (st *state) stripe(c int32) *sync.Mutex {
	return &st.nbrMu[uint32(c)&(numStripes-1)]
}

func newState(g *graph.Graph, rng *rand.Rand) *state {
	n := int32(g.NumNodes())
	cap := 2*n + 1
	st := &state{
		g:       g,
		n:       n,
		parent:  make([]int32, n, cap),
		child:   make([][2]int32, n, cap),
		size:    make([]int32, n, cap),
		height:  make([]int32, n, cap),
		verts:   make([][]int32, n, cap),
		rootOf:  make([]int32, n),
		hCost:   make([]int64, n, cap),
		within:  make([][]sedge, n, cap),
		pcost:   make([]int64, n, cap),
		selfGT:  make([]int64, n, cap),
		nbrs:    make([][]nbr, n, cap),
		next:    n,
		rng:     rng,
		workers: 1,
	}
	leafIDs := make([]int32, n)
	for v := int32(0); v < n; v++ {
		leafIDs[v] = v
		st.parent[v] = -1
		st.child[v] = [2]int32{-1, -1}
		st.size[v] = 1
		st.verts[v] = leafIDs[v : v+1]
		st.rootOf[v] = v
	}
	// Initialize G to G: one p-edge per subedge (Algorithm 1 lines 1-4),
	// entry i for the i-th edge. A vertex's list is its adjacency, visited
	// ascending; the lists of old roots only ever shrink (a commit swaps two
	// neighbours for one), so one exact-size backing array serves them all.
	m := g.NumEdges()
	st.ents = make([]crossEntry, m)
	edges := make([]sedge, m)
	backing := make([]nbr, 2*m)
	for v := int32(0); v < n; v++ {
		deg := g.Degree(v)
		st.nbrs[v], backing = backing[:0:deg], backing[deg:]
	}
	// Every initial entry joins two leaves by one subedge, so all records
	// share one side vector.
	leaf := newRecord(1, sideKernel(&blockCounts{{1, 0}, {0, 0}}, &[2]int64{1}, &[2]int64{1}, 1, 1))
	i := int32(0)
	g.ForEachEdge(func(u, v int32) {
		edges[i] = sedge{a: u, b: v, sign: 1}
		st.ents[i] = crossEntry{edges: edges[i : i+1 : i+1], row: u, blocks: blockCounts{{1, 0}, {0, 0}}}
		leaf.e, leaf.c = i, v
		st.nbrs[u] = append(st.nbrs[u], leaf)
		leaf.c = u
		st.nbrs[v] = append(st.nbrs[v], leaf)
		st.pcost[u]++
		st.pcost[v]++
		i++
	})
	return st
}

// nbr is one record of a root's neighbour list, holding everything a
// partner scan reads of the pair, so that the scan follows no pointer:
// the adjacent root c, the number of signed edges of the pair's entry,
// this root's side vector towards c — its atoms' cost in a Case-2 panel
// whose right root is c, whoever it is merged with — and its loose bit:
// whether a merge with a partner not adjacent to c could still re-encode
// the pair more cheaply than its edges. e indexes the entry the two roots
// share in st.ents, so the lists hold no pointer for the GC to scan.
// An entry never has more edges than its pair has subedges, so n fits
// any graph of fewer than 2^31 edges.
type nbr struct {
	e     int32
	c     int32
	n     int32
	side  sideVec
	loose bool
}

// record returns root x's record towards root c, whose entry is ei.
func (st *state) record(x, c, ei int32) nbr {
	xa, ca := st.atomsOf(x), st.atomsOf(c)
	nl, nr := numAtoms(xa), numAtoms(ca)
	var ls, rs [2]int64
	for i := 0; i < nl; i++ {
		ls[i] = int64(st.size[xa[i]])
	}
	for j := 0; j < nr; j++ {
		rs[j] = int64(st.size[ca[j]])
	}
	e := &st.ents[ei]
	bc := e.counts(x)
	rec := newRecord(int64(len(e.edges)), sideKernel(&bc, &ls, &rs, nl, nr))
	rec.e, rec.c = ei, c
	return rec
}

// newRecord fills a record but for e and c from the entry's edge count and
// the side vector. The partner's rows cost at least nothing, so the panel
// of a merge with a partner not adjacent to c costs at least the cheapest
// ambient vector plus this side.
func newRecord(n int64, side sideVec) nbr {
	return nbr{n: int32(n), side: side, loose: panelCost(&side, &sideVec{}) < n}
}

// search returns the position of root c in the neighbour list l — where
// it is, or where it would be inserted — and whether it is there. Written
// out because it takes a third of slices.BinarySearchFunc's time.
func search(l []nbr, c int32) (int, bool) {
	lo, hi := 0, len(l)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); l[mid].c < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l) && l[lo].c == c
}

// entry returns the cross entry of roots r and c, nil when they are not
// adjacent.
func (st *state) entry(r, c int32) *crossEntry {
	if i, ok := search(st.nbrs[r], c); ok {
		return &st.ents[st.nbrs[r][i].e]
	}
	return nil
}

// swapIn replaces the records towards roots a and b in the ascending
// list l, at least one of them present, by rec — a commit's update of a
// neighbour's list — moving each record at most once.
func swapIn(l []nbr, a, b int32, rec nbr) []nbr {
	var cut [3]int // the removed positions, ascending, then len(l)
	n := 0
	for _, x := range [2]int32{min(a, b), max(a, b)} {
		if i, ok := search(l, x); ok {
			cut[n] = i
			n++
		}
	}
	k, _ := search(l, rec.c)
	if k <= cut[0] { // rec lands first: shift right up to the first removed
		copy(l[k+1:], l[k:cut[0]])
		l[k] = rec
		if n == 2 {
			copy(l[cut[1]:], l[cut[1]+1:])
			l = l[:len(l)-1]
		}
		return l
	}
	cut[n] = len(l)
	w := cut[0]
	for s := 0; s < n; s++ { // shift each run between removals left
		lo, hi := cut[s]+1, cut[s+1]
		if lo <= k && k <= hi {
			w += copy(l[w:], l[lo:k])
			l[w] = rec
			w, lo = w+1, k
		}
		if w < lo {
			copy(l[w:], l[lo:hi])
		}
		w += hi - lo
	}
	return l[:w]
}

// ensureLen grows every id-indexed slice to length n, marking the new
// tail unborn. Only called serially (between waves), never while group
// workers are running.
func (st *state) ensureLen(n int) {
	for len(st.parent) < n {
		st.parent = append(st.parent, unborn)
		st.child = append(st.child, [2]int32{-1, -1})
		st.size = append(st.size, 0)
		st.height = append(st.height, 0)
		st.verts = append(st.verts, nil)
		st.hCost = append(st.hCost, 0)
		st.within = append(st.within, nil)
		st.pcost = append(st.pcost, 0)
		st.selfGT = append(st.selfGT, 0)
		st.nbrs = append(st.nbrs, nil)
	}
}

// reserveIDs hands out k supernode ids, recycling ids reserved by
// earlier iterations but never allocated, then extending the id space.
// The result is deterministic for a deterministic merge history, which
// keeps fresh supernode ids — and hence candidate-group contents and
// per-group RNG streams — identical across worker counts.
func (st *state) reserveIDs(k int) []int32 {
	ids := make([]int32, 0, k)
	for k > 0 && len(st.free) > 0 {
		ids = append(ids, st.free[len(st.free)-1])
		st.free = st.free[:len(st.free)-1]
		k--
	}
	if k > 0 {
		base := st.next
		st.next += int32(k)
		st.ensureLen(int(st.next))
		for i := 0; i < k; i++ {
			ids = append(ids, base+int32(i))
		}
	}
	return ids
}

// releaseIDs returns unused reserved ids to the free list.
func (st *state) releaseIDs(ids []int32) {
	st.free = append(st.free, ids...)
}

// roots returns all current root supernode ids.
func (st *state) roots() []int32 {
	out := make([]int32, 0, st.n)
	for id := int32(0); id < st.next; id++ {
		if st.parent[id] == -1 {
			out = append(out, id)
		}
	}
	return out
}

// isLeaf reports whether supernode id is a vertex.
func (st *state) isLeaf(id int32) bool { return id < st.n }

// atomsOf returns the "atom" supernodes of root r: its direct children,
// or r itself if r is a leaf. Atoms partition the subnodes of r and are
// the finest granularity of the Fig. 4 panels.
func (st *state) atomsOf(r int32) [2]int32 {
	if st.child[r][0] == -1 {
		return [2]int32{r, -1}
	}
	return st.child[r]
}

// numAtoms returns 1 or 2 for atomsOf's result.
func numAtoms(a [2]int32) int {
	if a[1] == -1 {
		return 1
	}
	return 2
}

// rootCost returns Cost_A(G) = Cost^H_A + Cost^P_A for root a (Eq. (6)).
func (st *state) rootCost(a int32) int64 {
	return st.hCost[a] + st.pcost[a]
}

// pairsWithin returns the number of unordered vertex pairs inside a
// supernode of the given size.
func pairsWithin(size int32) int64 {
	s := int64(size)
	return s * (s - 1) / 2
}
