package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/graph"
)

// compiledCases returns named summaries covering the query-path corner
// cases: nested endpoints, self-loops, n-edges, repeated superedges,
// isolated vertices, and a deeper multi-level forest.
func compiledCases() map[string]*Summary {
	// 100 leaves in pairs under 100..149, those in fives under 150..159,
	// all under the single root 160: a 3-level hierarchy.
	deepParent := make([]int32, 161)
	for i := 0; i < 100; i++ {
		deepParent[i] = int32(100 + i/2)
	}
	for i := 100; i < 150; i++ {
		deepParent[i] = int32(150 + (i-100)/5)
	}
	for i := 150; i < 160; i++ {
		deepParent[i] = 160
	}
	deepParent[160] = -1
	var deepEdges []Edge
	for i := int32(0); i < 100; i += 3 {
		deepEdges = append(deepEdges, Edge{A: i, B: (i + 7) % 100, Sign: 1})
		sign := int8(1)
		if i%2 == 0 {
			sign = -1
		}
		deepEdges = append(deepEdges, Edge{A: 100 + i/2, B: (i + 13) % 100, Sign: sign})
		deepEdges = append(deepEdges, Edge{A: 150 + i/10, B: i, Sign: 1})
	}
	deepEdges = append(deepEdges, Edge{A: 100, B: 100, Sign: 1}) // self-loop on an internal node

	// Leaves 0..6; 7 = {0,1}, 8 = {7,2} = {0,1,2}, 9 = {3,4}. The
	// n-edge (7,8) is nested under 8's self-loop, and the p-edges (0,1)
	// and (0,2) restore pairs it removes (counting (7,8) twice would
	// lose them); the n-edge (8,9) is offset by two copies of the p-edge
	// (7,9), as the pruner emits |net| copies, and by (2,9). Leaf 6 has
	// no neighbors.
	multiEdges := []Edge{
		{A: 8, B: 8, Sign: 1}, {A: 7, B: 8, Sign: -1}, {A: 0, B: 1, Sign: 1}, {A: 0, B: 2, Sign: 1},
		{A: 8, B: 9, Sign: -1}, {A: 7, B: 9, Sign: 1}, {A: 7, B: 9, Sign: 1}, {A: 2, B: 9, Sign: 1},
		{A: 5, B: 9, Sign: 1},
	}

	return map[string]*Summary{
		"multi":  New(7, []int32{7, 7, 8, 9, 9, -1, -1, 8, -1, -1}, multiEdges),
		"fig2":   fig2LikeSummary(),
		"nested": New(4, []int32{4, 4, 5, -1, 5, -1}, []Edge{{A: 4, B: 5, Sign: 1}}),
		"clique": New(5, []int32{5, 5, 5, 5, 5, -1}, []Edge{{A: 5, B: 5, Sign: 1}}),
		"deep":   New(100, deepParent, deepEdges),
	}
}

// TestMultiCaseGraph pins what the "multi" case represents, so its
// corner cases are exercised on a known graph.
func TestMultiCaseGraph(t *testing.T) {
	s := compiledCases()["multi"]
	b := graph.NewBuilder(7)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 5}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	if err := s.Validate(b.Build()); err != nil {
		t.Fatal(err)
	}
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCompiledMatchesSummary(t *testing.T) {
	for name, s := range compiledCases() {
		checkAgainstOracle(t, name, s, s.Compile())
	}
}

func TestCompiledNeighborsBatch(t *testing.T) {
	s := fig2LikeSummary()
	cs, o := s.Compile(), newOracle(s)
	vs := []int32{0, 2, 5, 4, 6, 0}
	i := 0
	cs.NeighborsBatch(vs, func(v int32, nbrs []int32) {
		if v != vs[i] {
			t.Fatalf("batch visited %d at position %d, want %d", v, i, vs[i])
		}
		if want := o.neighbors(v); !int32sEqual(nbrs, want) {
			t.Fatalf("batch NeighborsOf(%d) = %v, want %v", v, nbrs, want)
		}
		i++
	})
	if i != len(vs) {
		t.Fatalf("batch visited %d vertices, want %d", i, len(vs))
	}
}

// TestCompiledConcurrentReaders hammers one compiled summary from many
// goroutines through every public entry point; run under -race it
// asserts the "N concurrent readers, zero locks in the hot path" claim.
func TestCompiledConcurrentReaders(t *testing.T) {
	s := compiledCases()["deep"]
	cs, o := s.Compile(), newOracle(s)
	n := int32(s.N)
	want := make([][]int32, n)
	for v := int32(0); v < n; v++ {
		want[v] = o.neighbors(v)
	}
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			ctx := cs.AcquireCtx()
			defer cs.ReleaseCtx(ctx)
			for i := 0; i < iters; i++ {
				v := int32((gid*31 + i*17) % int(n))
				u := int32((gid*13 + i*7) % int(n))
				if got := ctx.NeighborsOf(v); !int32sEqual(got, want[v]) {
					errs <- fmt.Errorf("concurrent NeighborsOf(%d) mismatch", v)
					return
				}
				inNbrs := false
				for _, w := range want[u] {
					if w == v {
						inNbrs = true
					}
				}
				if u != v && ctx.HasEdge(u, v) != inNbrs {
					errs <- fmt.Errorf("concurrent HasEdge(%d,%d) mismatch", u, v)
					return
				}
				// Pool-backed convenience forms race the pool as well.
				if got := cs.NeighborsOf(v); !int32sEqual(got, want[v]) {
					errs <- fmt.Errorf("concurrent pooled NeighborsOf(%d) mismatch", v)
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompiledQueryAllocationFree mirrors the construction-side
// TestSweepAllocationFree: a warmed query context must answer
// NeighborsOf and HasEdge without heap allocation.
func TestCompiledQueryAllocationFree(t *testing.T) {
	s := compiledCases()["deep"]
	cs := s.Compile()
	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	n := int32(s.N)
	// Warm the context buffers (touched/out grow to their steady size).
	for v := int32(0); v < n; v++ {
		ctx.NeighborsOf(v)
	}
	if avg := testing.AllocsPerRun(200, func() {
		ctx.NeighborsOf(3)
		ctx.NeighborsOf(97)
	}); avg != 0 {
		t.Fatalf("warmed ctx.NeighborsOf allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		ctx.HasEdge(3, 10)
		ctx.HasEdge(40, 41)
	}); avg != 0 {
		t.Fatalf("warmed ctx.HasEdge allocates %.1f/op, want 0", avg)
	}
	if !raceEnabled {
		// sync.Pool drops items at random under -race, so the pooled
		// path is only allocation-free in normal builds.
		if avg := testing.AllocsPerRun(200, func() {
			cs.HasEdge(3, 10)
		}); avg != 0 {
			t.Fatalf("pooled cs.HasEdge allocates %.1f/op, want 0", avg)
		}
	}
}

// TestQueryCtxEpochWrap forces the int32 epoch counters through their
// wraparound and checks answers stay correct (stale stamps from before
// the wrap must not read as current).
func TestQueryCtxEpochWrap(t *testing.T) {
	s := fig2LikeSummary()
	cs, o := s.Compile(), newOracle(s)
	ctx := cs.AcquireCtx()
	defer cs.ReleaseCtx(ctx)
	want0 := o.neighbors(0)
	if got := ctx.NeighborsOf(0); !int32sEqual(got, want0) {
		t.Fatalf("pre-wrap NeighborsOf(0) = %v, want %v", got, want0)
	}
	ctx.ancEpoch = math.MaxInt32 - 1
	ctx.cntEpoch = math.MaxInt32 - 1
	for i := 0; i < 5; i++ {
		if got := ctx.NeighborsOf(0); !int32sEqual(got, want0) {
			t.Fatalf("wrap step %d: NeighborsOf(0) = %v, want %v", i, got, want0)
		}
		if got, want := ctx.HasEdge(2, 5), o.hasEdge(2, 5); got != want {
			t.Fatalf("wrap step %d: HasEdge(2,5) = %v, want %v", i, got, want)
		}
	}
}
