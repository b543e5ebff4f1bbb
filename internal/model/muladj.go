package model

// This file gives the compiled layer one linear-algebra primitive:
// MulAdj applies the represented graph's adjacency matrix to a vector
// without enumerating a single neighbor. Under the {0,1} pair-count
// restriction SLUGGER maintains (Sect. III-B3) the model is linear,
//
//	A = Σₑ signₑ·(1_A 1_Bᵀ + 1_B 1_Aᵀ) − diag,
//
// so A·x needs only subtree sums: one bottom-up pass over the forest,
// one pass over the superedges, one top-down pass — O(|S| + |P|) per
// product instead of one partial decompression (Algorithm 4) per
// vertex. Power iterations (algos.PageRank) are the consumer.

import (
	"cmp"
	"slices"
	"sync"
)

// adjPlan is what MulAdj needs beyond the query arrays, derived once
// per CompiledSummary on first use (CompiledSummary.adjPlan; never by
// Compile or FromMapped, so builds and boots do not pay for it). Its
// supernode ids are plan-local (forest).
type adjPlan struct {
	eligible bool

	// Each leaf's parent (-1 for a root), and the internal non-root
	// supernodes deepest first with theirs. Sums fold the leaves, then
	// order forward, so each parent takes its leaves' sums before its
	// other children's, both in id order; accumulators push down order
	// backward, and the diagonal pass gives each leaf its parent's.
	leafParent, order, orderParent []int32

	// Superedges regrouped: [0, disjoint) have disjoint endpoints,
	// [disjoint, len) have the second endpoint inside the first
	// (self-loops included). An n-edge stores its second id
	// complemented (< 0), and the edge pass subtracts where a p-edge
	// adds: x + (-1·y) and x - y are the same IEEE 754 result.
	edges    [][2]int32
	disjoint int

	// diag[v] is the signed number of nested edges covering the self
	// pair {v,v}, which the edge pass adds and the graph does not have.
	diag []int32

	scratch sync.Pool // *[]float64 of 2·|S|: subtree sums, accumulators

	degrees func() []float64 // A·1, on first use (Degrees)
}

// forest recovers the hierarchy from the ancestor chains (every
// supernode lies on some leaf's chain): each supernode's parent, -1 for
// roots, its depth in h-edges below its root, and its plan-local id.
// Leaves keep their ids; the others take n, n+1, … as they first
// appear on the chains of leaves 0, 1, …, so each sits next to its
// smallest leaf instead of where merge order put it.
func (cs *CompiledSummary) forest() (parent, depth, id []int32) {
	parent = make([]int32, cs.total)
	for i := range parent {
		parent[i] = -1
	}
	depth, id = make([]int32, cs.total), make([]int32, cs.total)
	next := int32(cs.n)
	for v := int32(0); v < int32(cs.n); v++ {
		chain := cs.chainOf(v)
		id[v] = v
		for i, x := range chain {
			depth[x] = int32(len(chain) - 1 - i)
			if i+1 < len(chain) {
				parent[x] = chain[i+1]
			}
			if i > 0 && id[x] == 0 { // no internal id is 0
				id[x], next = next, next+1
			}
		}
	}
	return parent, depth, id
}

func (cs *CompiledSummary) buildAdjPlan() *adjPlan {
	parent, depth, id := cs.forest()
	p := &adjPlan{}
	if p.eligible = cs.isLinear(depth); !p.eligible {
		return p
	}

	for x := int32(cs.n); x < int32(cs.total); x++ {
		if parent[x] >= 0 {
			p.order = append(p.order, x)
		}
	}
	slices.SortStableFunc(p.order, func(a, b int32) int { return cmp.Compare(depth[b], depth[a]) })
	p.orderParent = make([]int32, len(p.order))
	for i, x := range p.order {
		p.orderParent[i] = parent[x]
	}

	// Two supernodes of a forest are nested or disjoint; walking the
	// deeper one up to the other's depth tells which.
	m := len(cs.edgeA)
	p.edges = make([][2]int32, m)
	diag := make([]int32, cs.total)
	lo, hi := 0, m
	for i := range cs.edgeA {
		outer, inner, s := cs.edgeA[i], cs.edgeB[i], int32(cs.edgeSign[i])
		if depth[outer] > depth[inner] {
			outer, inner = inner, outer
		}
		y := inner
		for depth[y] > depth[outer] {
			y = parent[y]
		}
		e := [2]int32{id[outer], id[inner] ^ s>>1} // ^inner for an n-edge
		if y == outer {
			hi--
			p.edges[hi] = e
			diag[inner] += s
		} else {
			p.edges[lo] = e
			lo++
		}
	}
	p.disjoint = lo
	for i := len(p.order) - 1; i >= 0; i-- {
		diag[p.order[i]] += diag[p.orderParent[i]]
	}
	for i, x := range p.order {
		p.order[i], p.orderParent[i] = id[x], id[p.orderParent[i]]
	}
	p.leafParent, p.diag = parent[:cs.n], diag[:cs.n]
	for v, par := range p.leafParent {
		if par >= 0 {
			p.leafParent[v] = id[par]
			p.diag[v] += diag[par]
		}
	}
	p.degrees = sync.OnceValue(func() []float64 {
		ones, deg := make([]float64, cs.n), make([]float64, cs.n)
		for v := range ones {
			ones[v] = 1
		}
		cs.MulAdj(deg, ones)
		return deg
	})
	return p
}

// isLinear proves, from the arrays themselves, that MulAdj's algebra
// equals what NeighborsOf enumerates: subnode lists agree with the
// chain arrays (FromMapped cross-checks a file's incidence lists
// against its edges, not its subnode lists against its chains), and
// one accumulate sweep finds every pair count in {0,1}. depth is each
// supernode's distance from its root.
func (cs *CompiledSummary) isLinear(depth []int32) bool {
	// verts[x] is exactly the set of leaves whose chain passes through x.
	under := make([]int64, cs.total)
	for _, x := range cs.chains {
		under[x]++
	}
	for x := int32(0); x < int32(cs.total); x++ {
		vs := cs.vertsOf(x)
		if int64(len(vs)) != under[x] {
			return false
		}
		for i, u := range vs {
			chain := cs.chainOf(u)
			k := len(chain) - 1 - int(depth[x])
			if (i > 0 && u <= vs[i-1]) || k < 0 || chain[k] != x {
				return false
			}
		}
	}

	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	for v := int32(0); v < int32(cs.n); v++ {
		ctx.accumulate(v)
		for _, u := range ctx.touched {
			if c := ctx.cnt[u]; u != v && c != 0 && c != 1 {
				return false
			}
		}
	}
	return true
}

// MulAdj computes dst = A·x for the adjacency matrix A of the
// represented graph; dst and x are distinct slices of length
// NumNodes(). It reports false, leaving dst alone, when the summary is
// not one MulAdj's algebra is exact for — a pair count outside {0,1},
// or a mapped file whose sections disagree with each other — and the
// caller then falls back to NeighborsOf. The first call pays for the
// plan and that check (about one Decode); later calls are O(|S| + |P|).
// For a fixed summary the additions happen in a fixed order, so equal
// inputs give bit-equal outputs. Safe for concurrent callers.
func (cs *CompiledSummary) MulAdj(dst, x []float64) bool {
	p := cs.adjPlan()
	if !p.eligible {
		return false
	}
	n := cs.n
	buf, _ := p.scratch.Get().(*[]float64)
	if buf == nil {
		b := make([]float64, 2*cs.total)
		buf = &b
	}
	defer p.scratch.Put(buf)
	sum, acc := (*buf)[:cs.total], (*buf)[cs.total:]
	acc = acc[:len(sum)] // equal lengths: one bounds check covers both

	// Subtree sums, bottom-up.
	copy(sum, x[:n])
	clear(sum[n:])
	for v, par := range p.leafParent {
		if par >= 0 {
			sum[par] += x[v]
		}
	}
	for i, c := range p.order {
		sum[p.orderParent[i]] += sum[c]
	}

	// Each superedge hands every leaf under one endpoint the sum under
	// the other. A nested edge covers the pairs with one end in the
	// inner endpoint and the other anywhere in the outer one.
	clear(acc)
	for _, e := range p.edges[:p.disjoint] {
		if a, b := e[0], e[1]; b >= 0 {
			acc[a] += sum[b]
			acc[b] += sum[a]
		} else {
			b = ^b
			acc[a] -= sum[b]
			acc[b] -= sum[a]
		}
	}
	for _, e := range p.edges[p.disjoint:] {
		if outer, inner := e[0], e[1]; inner >= 0 {
			acc[outer] += sum[inner]
			acc[inner] += sum[outer] - sum[inner]
		} else {
			inner = ^inner
			acc[outer] -= sum[inner]
			acc[inner] -= sum[outer] - sum[inner]
		}
	}

	// Accumulators, top-down; each leaf then takes its parent's and
	// gives its self pair back.
	for i := len(p.order) - 1; i >= 0; i-- {
		acc[p.order[i]] += acc[p.orderParent[i]]
	}
	dst, x, diag := dst[:n], x[:n], p.diag[:n]
	for v, par := range p.leafParent[:n] {
		a := acc[v]
		if par >= 0 {
			a += acc[par]
		}
		dst[v] = a - float64(diag[v])*x[v]
	}
	return true
}

// Degrees writes A·1, every vertex's degree, to dst (length
// NumNodes()) and reports whether it could: false, leaving dst alone,
// exactly when MulAdj would. The vector is one MulAdj, computed on the
// first call and copied after, so its bits are MulAdj's. Safe for
// concurrent callers.
func (cs *CompiledSummary) Degrees(dst []float64) bool {
	p := cs.adjPlan()
	if !p.eligible {
		return false
	}
	copy(dst, p.degrees())
	return true
}
