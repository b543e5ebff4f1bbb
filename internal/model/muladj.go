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
// Compile or FromMapped, so builds and boots do not pay for it).
type adjPlan struct {
	eligible bool

	// Non-root supernodes deepest first, each with its parent: walking
	// forward folds children into parents, walking backward pushes
	// parents down to children.
	order, orderParent []int32

	// Superedges regrouped: [0, disjoint) have disjoint endpoints,
	// [disjoint, len) have eb ⊆ ea (self-loops included, ea == eb).
	ea, eb   []int32
	es       []float64
	disjoint int

	// diag[v] is the signed number of nested edges covering the self
	// pair {v,v}, which the edge pass adds and the graph does not have.
	diag []float64

	scratch sync.Pool // *[]float64 of 2·|S|: subtree sums, accumulators
}

// forest recovers the hierarchy from the ancestor chains (every
// supernode lies on some leaf's chain): each supernode's parent, -1 for
// roots, and its depth in h-edges below its root.
func (cs *CompiledSummary) forest() (parent, depth []int32) {
	parent = make([]int32, cs.total)
	for i := range parent {
		parent[i] = -1
	}
	depth = make([]int32, cs.total)
	for v := int32(0); v < int32(cs.n); v++ {
		chain := cs.chainOf(v)
		for i, x := range chain {
			depth[x] = int32(len(chain) - 1 - i)
			if i+1 < len(chain) {
				parent[x] = chain[i+1]
			}
		}
	}
	return parent, depth
}

func (cs *CompiledSummary) buildAdjPlan() *adjPlan {
	parent, depth := cs.forest()
	p := &adjPlan{}
	if p.eligible = cs.isLinear(depth); !p.eligible {
		return p
	}

	for x, par := range parent {
		if par >= 0 {
			p.order = append(p.order, int32(x))
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
	p.ea, p.eb, p.es = make([]int32, m), make([]int32, m), make([]float64, m)
	diag := make([]float64, cs.total)
	lo, hi := 0, m
	for i := range cs.edgeA {
		outer, inner, s := cs.edgeA[i], cs.edgeB[i], float64(cs.edgeSign[i])
		if depth[outer] > depth[inner] {
			outer, inner = inner, outer
		}
		y := inner
		for depth[y] > depth[outer] {
			y = parent[y]
		}
		if y == outer {
			hi--
			p.ea[hi], p.eb[hi], p.es[hi] = outer, inner, s
			diag[inner] += s
		} else {
			p.ea[lo], p.eb[lo], p.es[lo] = outer, inner, s
			lo++
		}
	}
	p.disjoint = lo
	for i := len(p.order) - 1; i >= 0; i-- {
		diag[p.order[i]] += diag[p.orderParent[i]]
	}
	p.diag = diag[:cs.n]
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

	// Subtree sums, bottom-up.
	copy(sum, x[:n])
	clear(sum[n:])
	for i, c := range p.order {
		sum[p.orderParent[i]] += sum[c]
	}

	// Each superedge hands every leaf under one endpoint the sum under
	// the other. A nested edge covers the pairs with one end in the
	// inner endpoint and the other anywhere in the outer one.
	clear(acc)
	ea, eb, es := p.ea, p.eb, p.es
	for i := 0; i < p.disjoint; i++ {
		a, b, s := ea[i], eb[i], es[i]
		acc[a] += s * sum[b]
		acc[b] += s * sum[a]
	}
	for i := p.disjoint; i < len(ea); i++ {
		outer, inner, s := ea[i], eb[i], es[i]
		acc[outer] += s * sum[inner]
		acc[inner] += s * (sum[outer] - sum[inner])
	}

	// Accumulators, top-down; then take the self pairs back out.
	for i := len(p.order) - 1; i >= 0; i-- {
		acc[p.order[i]] += acc[p.orderParent[i]]
	}
	for v, d := range p.diag {
		dst[v] = acc[v] - d*x[v]
	}
	return true
}
