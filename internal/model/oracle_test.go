package model

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// oracle is the model's definition (Sect. II-B) read literally, with no
// shortcut the query engine takes: a superedge {A,B} covers every leaf
// pair {u,w}, u ≠ w, with u under A and w under B, and a pair's count
// is the sum of the signs of the superedges covering it. It expands
// every superedge into its pairs, so it is for small summaries only.
type oracle struct {
	n   int
	cnt map[[2]int32]int32 // {min, max} -> count
}

func newOracle(s *Summary) oracle {
	under := make([][]int32, len(s.Parent))
	for v := int32(0); v < int32(s.N); v++ {
		for x := v; x >= 0; x = s.Parent[x] {
			under[x] = append(under[x], v)
		}
	}
	o := oracle{n: s.N, cnt: make(map[[2]int32]int32)}
	for _, e := range s.Edges {
		covered := make(map[[2]int32]bool)
		for _, u := range under[e.A] {
			for _, w := range under[e.B] {
				if u != w {
					covered[[2]int32{min(u, w), max(u, w)}] = true
				}
			}
		}
		for pair := range covered {
			o.cnt[pair] += int32(e.Sign)
		}
	}
	return o
}

func (o oracle) hasEdge(u, v int32) bool {
	return o.cnt[[2]int32{min(u, v), max(u, v)}] > 0
}

// neighbors returns v's neighbors in ascending order.
func (o oracle) neighbors(v int32) []int32 {
	var out []int32
	for u := range int32(o.n) {
		if u != v && o.hasEdge(u, v) {
			out = append(out, u)
		}
	}
	return out
}

func (o oracle) graph() *graph.Graph {
	b := graph.NewBuilder(o.n)
	for pair, c := range o.cnt {
		if c > 0 {
			b.AddEdge(pair[0], pair[1])
		}
	}
	return b.Build()
}

// checkAgainstOracle holds cs to the definition on every vertex and
// pair, through one reused context and the pooled form, and on Decode.
func checkAgainstOracle(t testing.TB, what string, s *Summary, cs *CompiledSummary) {
	t.Helper()
	o := newOracle(s)
	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	for v := range int32(s.N) {
		if got, want := ctx.NeighborsOf(v), o.neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("%s: NeighborsOf(%d) = %v, want %v", what, v, got, want)
		}
		if got, want := cs.NeighborsOf(v), o.neighbors(v); !slices.Equal(got, want) {
			t.Fatalf("%s: pooled NeighborsOf(%d) = %v, want %v", what, v, got, want)
		}
		for u := range int32(s.N) {
			if got, want := ctx.HasEdge(v, u), u != v && o.hasEdge(v, u); got != want {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", what, v, u, got, want)
			}
		}
	}
	if !graph.Equal(cs.Decode(), o.graph()) {
		t.Fatalf("%s: Decode differs from the definition", what)
	}
}
