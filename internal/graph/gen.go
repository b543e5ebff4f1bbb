package graph

import (
	"math/rand"
	"slices"
)

// Generators for the synthetic analogues of the paper's 16 datasets.
// All generators are deterministic given their seed.

// ErdosRenyi generates G(n, m): m uniformly random edges among n nodes.
func ErdosRenyi(n int, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for b.NumPendingEdges() < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		b.AddEdge(u, v)
	}
	return b.Build()
}

// BarabasiAlbert generates a preferential-attachment graph: each new
// node attaches to k existing nodes chosen proportional to degree.
// Produces heavy-tailed degree distributions typical of social and
// citation networks.
func BarabasiAlbert(n, k int, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// targets is a repeated-node list implementing preferential attachment.
	targets := make([]int32, 0, 2*n*k)
	// Seed clique of k+1 nodes.
	m0 := k + 1
	if m0 > n {
		m0 = n
	}
	for i := 0; i < m0; i++ {
		for j := i + 1; j < m0; j++ {
			b.AddEdge(int32(i), int32(j))
			targets = append(targets, int32(i), int32(j))
		}
	}
	// Every candidate is an existing node (< v), so the nodes a vertex
	// has drawn are exactly the ones it attaches to.
	added := make([]int32, 0, k)
	for v := m0; v < n; v++ {
		added = added[:0]
		for len(added) < k && len(added) < v {
			var u int32
			if len(targets) == 0 {
				u = int32(rng.Intn(v))
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			if !slices.Contains(added, u) {
				added = append(added, u)
			}
		}
		for _, u := range added {
			b.AddEdge(int32(v), u)
			targets = append(targets, int32(v), u)
		}
	}
	return b.Build()
}

// RMAT generates a recursive-matrix (Kronecker-like) graph with 2^scale
// nodes and approximately edgeFactor*2^scale edges, using partition
// probabilities (a, b, c, d) with a+b+c+d == 1. R-MAT graphs mimic the
// skewed, self-similar structure of hyperlink networks.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	m := edgeFactor * n
	bl := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left quadrant: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		bl.AddEdge(int32(u), int32(v))
	}
	return bl.Build()
}

// HierParams configures the hierarchical planted-partition generator.
type HierParams struct {
	Levels    int // depth of the community tree (>=1)
	Branching int // children per community at each level
	LeafSize  int // nodes per bottom-level community
	// Density[l] is the edge probability between two nodes whose lowest
	// common community is at level l (0 = root, Levels = leaf community).
	// Real hierarchical graphs have increasing density with depth.
	Density []float64
}

// DefaultHierParams returns parameters producing a pronounced
// 3-level hierarchy (the "university / department / advisor" structure
// of Sect. II-A).
func DefaultHierParams() HierParams {
	return HierParams{
		Levels:    3,
		Branching: 4,
		LeafSize:  8,
		Density:   []float64{0.002, 0.05, 0.35, 0.9},
	}
}

// HierCommunity generates a graph with nested community structure: a
// balanced community tree where edge probability between two nodes
// depends on the depth of their lowest common ancestor community.
// This is the structure the hierarchical summarization model is designed
// to exploit (Sect. I and II-B of the paper).
func HierCommunity(p HierParams, seed int64) *Graph {
	if p.Levels < 1 || p.Branching < 1 || p.LeafSize < 1 {
		panic("graph: invalid HierParams")
	}
	if len(p.Density) != p.Levels+1 {
		panic("graph: HierParams.Density must have Levels+1 entries")
	}
	rng := rand.New(rand.NewSource(seed))
	// Community of node v at level l is v / (LeafSize * Branching^(Levels-l)).
	div := make([]int, p.Levels+1)
	div[p.Levels] = p.LeafSize
	for l := p.Levels - 1; l >= 0; l-- {
		div[l] = div[l+1] * p.Branching
	}
	n := div[0] // the root community holds every node
	b := NewBuilder(n)
	// Levels 1..Levels: one draw per pair inside a level-1 community, in
	// (i, j) order. The j > i whose lowest common community with i is at
	// level l form one interval, ending where i's level-l community ends.
	blockSize := div[1] // size of a level-1 community
	for i := 0; i < n; i++ {
		j := i + 1
		for l := p.Levels; l >= 1; l-- {
			end, d := (i/div[l]+1)*div[l], p.Density[l]
			for ; j < end; j++ {
				if rng.Float64() < d {
					b.AddEdge(int32(i), int32(j))
				}
			}
		}
	}
	// Top level (l == 0): sparse random cross edges, sampled.
	crossPairs := float64(n)*float64(n)/2 - float64(n)*float64(blockSize)/2
	want := int(p.Density[0] * crossPairs)
	for k := 0; k < want; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u/blockSize != v/blockSize {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// Caveman generates cliques of size cliqueSize connected in a ring by
// single bridge edges, plus extra random bridges. Cliques are the
// best case for summarization (a clique encodes as one p-self-loop).
func Caveman(numCliques, cliqueSize, extraBridges int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := numCliques * cliqueSize
	b := NewBuilder(n)
	for c := 0; c < numCliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				b.AddEdge(int32(base+i), int32(base+j))
			}
		}
		next := ((c+1)%numCliques)*cliqueSize + rng.Intn(cliqueSize)
		b.AddEdge(int32(base), int32(next))
	}
	for k := 0; k < extraBridges; k++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// BipartiteCores generates a union of complete bipartite subgraphs
// (web-community "cores") plus random noise edges — the pattern that
// dominates hyperlink graphs and favors supernode encodings.
func BipartiteCores(numCores, left, right, noise int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := numCores * (left + right)
	b := NewBuilder(n)
	for c := 0; c < numCores; c++ {
		base := c * (left + right)
		for i := 0; i < left; i++ {
			for j := 0; j < right; j++ {
				b.AddEdge(int32(base+i), int32(base+left+j))
			}
		}
	}
	for k := 0; k < noise; k++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// Theorem1Graph constructs the graph of Fig. 3(a) / Theorem 1: n
// "internal" hub nodes and k*n leaf-group nodes arranged so that the
// hierarchical model needs Θ(nk) edges while the flat model needs
// Ω(n^1.5). Concretely: nodes are n hubs; each hub i is adjacent to all
// nodes except its own block of 2k "excluded" partners, following the
// proof's structure: every node misses exactly 2k non-neighbors.
// We realize it as a complete n-partite-style graph: n groups of (2k+1)
// nodes each, with all edges present except within-group pairs beyond a
// perfect structure. For tractability we use the complement of a
// disjoint union of (2k+1)-cliques: every node is non-adjacent to
// exactly 2k others (its group), total nodes N = n*(2k+1).
func Theorem1Graph(n, k int) *Graph {
	group := 2*k + 1
	N := n * group
	b := NewBuilder(N)
	for u := 0; u < N; u++ {
		for v := u + 1; v < N; v++ {
			if u/group != v/group {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}
