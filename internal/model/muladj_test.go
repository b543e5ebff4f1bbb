package model_test

// MulAdj must be the adjacency matrix NeighborsOf enumerates — on every
// view, for every registered algorithm's output — or report that it
// cannot be. These tests live outside package model so they can
// summarize with pkg/slug and run internal/algos, both of which import
// it.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// adjMultiplier is the method the compiled and overlay views share.
type adjMultiplier interface {
	MulAdj(dst, x []float64) bool
}

// integerVector returns n small integers as float64s: sums of them are
// exact in any order, so MulAdj can be compared with ==.
func integerVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(rng.Intn(2001) - 1000)
	}
	return h
}

// checkMulAdj demands view be eligible and MulAdj(h)[v] equal the sum
// of h over neighbors(v), exactly, for two integer vectors.
func checkMulAdj(t *testing.T, what string, view adjMultiplier, n int, neighbors func(v int32) []int32) {
	t.Helper()
	for seed := int64(1); seed <= 2; seed++ {
		h := integerVector(n, seed)
		dst := make([]float64, n)
		if !view.MulAdj(dst, h) {
			t.Fatalf("%s: reported ineligible", what)
		}
		for v := range dst {
			var want float64
			for _, u := range neighbors(int32(v)) {
				want += h[u]
			}
			if dst[v] != want {
				t.Fatalf("%s: MulAdj[%d] = %v, neighbors sum to %v", what, v, dst[v], want)
			}
		}
	}
}

// checkDegrees demands cs be eligible and Degrees[v] equal the number
// of neighbors of v.
func checkDegrees(t *testing.T, what string, cs *model.CompiledSummary, neighbors func(v int32) []int32) {
	t.Helper()
	deg := make([]float64, cs.NumNodes())
	if !cs.Degrees(deg) {
		t.Fatalf("%s: Degrees reported ineligible", what)
	}
	for v, d := range deg {
		if want := len(neighbors(int32(v))); d != float64(want) {
			t.Fatalf("%s: Degrees[%d] = %v, %d neighbors", what, v, d, want)
		}
	}
}

// checkOverlayDegrees demands an overlay's Degrees be MulAdj of the
// all-ones vector bit for bit, and that the two report false together.
func checkOverlayDegrees(t *testing.T, what string, o *model.DeltaOverlay) {
	t.Helper()
	n := o.NumNodes()
	ones, prod, deg := make([]float64, n), make([]float64, n), make([]float64, n)
	for v := range ones {
		ones[v] = 1
	}
	okMul, okDeg := o.MulAdj(prod, ones), o.Degrees(deg)
	if okMul != okDeg {
		t.Fatalf("%s: MulAdj reports %v, Degrees %v", what, okMul, okDeg)
	}
	for v := range deg {
		if math.Float64bits(deg[v]) != math.Float64bits(prod[v]) {
			t.Fatalf("%s: Degrees[%d] = %v, MulAdj(ones) = %v", what, v, deg[v], prod[v])
		}
	}
}

// handBuilt are models exercising each branch of the edge pass.
func handBuilt() map[string]*model.Summary {
	return map[string]*model.Summary{
		// A self-loop p-edge: the clique on five leaves.
		"self-loop": model.New(5, []int32{5, 5, 5, 5, 5, -1}, []model.Edge{{A: 5, B: 5, Sign: 1}}),
		// {0,1}⊂6, {2,3}⊂7, {6,7,4}⊂8, leaf 5 is its own root. The
		// clique on 8 minus an n-edge nested under it (6 ⊂ 8), a
		// leaf-leaf edge back in, and the lone leaf tied to supernode 7.
		"nested": model.New(6, []int32{6, 6, 7, 7, 8, -1, 8, 8, -1}, []model.Edge{
			{A: 8, B: 8, Sign: 1},
			{A: 6, B: 8, Sign: -1},
			{A: 0, B: 2, Sign: 1},
			{A: 5, B: 7, Sign: 1},
		}),
		// No hierarchy at all: every leaf its own root.
		"flat": model.New(4, []int32{-1, -1, -1, -1}, []model.Edge{{A: 0, B: 1, Sign: 1}, {A: 1, B: 3, Sign: 1}}),
		// A p-edge between a supernode and its own child.
		"parent-child": model.New(3, []int32{3, 3, 4, 4, -1}, []model.Edge{{A: 3, B: 4, Sign: 1}, {A: 0, B: 3, Sign: -1}}),
	}
}

func TestMulAdjHandBuilt(t *testing.T) {
	for name, s := range handBuilt() {
		cs := s.Compile()
		checkMulAdj(t, name, cs, s.N, model.DefinitionNeighbors(s))
	}
}

// testGraphs are small seeded graphs of the shapes the summarizers
// treat differently: communities, cliques with bridges, bicliques,
// and structureless noise.
func testGraphs(seed int64) map[string]*graph.Graph {
	p := graph.HierParams{Levels: 2, Branching: 3, LeafSize: 8, Density: []float64{0.01, 0.3, 0.9}}
	return map[string]*graph.Graph{
		"hier":      graph.HierCommunity(p, seed),
		"caveman":   graph.Caveman(6, 7, 5, seed),
		"bipartite": graph.BipartiteCores(4, 5, 6, 12, seed),
		"random":    graph.ErdosRenyi(90, 260, seed),
	}
}

func summarize(t testing.TB, algo string, g *graph.Graph, seed int64) *model.CompiledSummary {
	t.Helper()
	art, err := slug.Get(algo).Summarize(context.Background(), g, slug.WithSeed(seed), slug.WithIterations(5))
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	cs, err := art.Queryable()
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return cs
}

// TestMulAdjEveryAlgorithm: whatever a registered algorithm produces is
// eligible and multiplies exactly — the fallback is for foreign input.
func TestMulAdjEveryAlgorithm(t *testing.T) {
	algorithms := slug.Algorithms()
	if len(algorithms) < 5 {
		t.Fatalf("registry has %v, want the five algorithms", algorithms)
	}
	for _, algo := range algorithms {
		for seed := int64(1); seed <= 3; seed++ {
			for name, g := range testGraphs(seed) {
				cs := summarize(t, algo, g, seed)
				checkMulAdj(t, algo+"/"+name, cs, g.NumNodes(), g.Neighbors)
				checkDegrees(t, algo+"/"+name, cs, g.Neighbors)
			}
		}
	}
}

// randomUpdates draws a batch of insertions and deletions, biased to
// hit existing edges half the time.
func randomUpdates(rng *rand.Rand, g *graph.Graph, count int) []model.EdgeUpdate {
	n := int32(g.NumNodes())
	var ups []model.EdgeUpdate
	for len(ups) < count {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if nb := g.Neighbors(u); rng.Intn(2) == 0 && len(nb) > 0 {
			v = nb[rng.Intn(len(nb))]
		}
		if u != v {
			ups = append(ups, model.EdgeUpdate{U: u, V: v, Delete: rng.Intn(2) == 0})
		}
	}
	return ups
}

func TestMulAdjOverlay(t *testing.T) {
	for name, g := range testGraphs(4) {
		o := model.NewOverlay(summarize(t, "slugger", g, 4))
		rng := rand.New(rand.NewSource(9))
		for batch := 0; batch < 6; batch++ {
			nxt, _, err := o.Apply(randomUpdates(rng, g, 25))
			if err != nil {
				t.Fatal(err)
			}
			o = nxt
			live := o.Decode()
			checkMulAdj(t, name, o, g.NumNodes(), live.Neighbors)
		}
		if o.Len() == 0 {
			t.Fatalf("%s: update batches left no corrections to test", name)
		}
	}
}

func TestMulAdjSharded(t *testing.T) {
	for name, g := range testGraphs(5) {
		for _, k := range []int{1, 2, 8} {
			sh, err := slug.SummarizeSharded(context.Background(), g, k, slug.WithSeed(5), slug.WithIterations(5))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sh.Queryable()
			if err != nil {
				t.Fatal(err)
			}
			checkMulAdj(t, name, sc, g.NumNodes(), g.Neighbors)
		}
	}
}

// ineligible returns the two fixtures MulAdj must refuse: a model with
// a pair count of 2, and a mapped file whose subnode lists were edited
// to disagree with its ancestor chains (in bounds, so FromMapped's
// validation passes).
func ineligible(t *testing.T) map[string]*model.CompiledSummary {
	t.Helper()
	overlapping := model.New(5, []int32{5, 5, 5, 5, 5, -1},
		[]model.Edge{{A: 5, B: 5, Sign: 1}, {A: 0, B: 1, Sign: 1}}).Compile()

	cs := handBuilt()["nested"].Compile()
	var buf bytes.Buffer
	if _, err := model.WriteCompiled(&buf, cs, model.MappedInfo{Algorithm: "slugger"}); err != nil {
		t.Fatal(err)
	}
	data := model.AlignedBuffer(buf.Len())
	copy(data, buf.Bytes())
	// verts is the leaves 0..5 (one each), then supernode 6's list
	// {0,1}: make it {0,2}.
	off := model.MappedVertsOffset(cs, len("slugger")) + 4*7
	if data[off] != 1 {
		t.Fatalf("verts[7] = %d, want leaf 1 (layout moved?)", data[off])
	}
	data[off] = 2
	edited, _, err := model.FromMapped(data)
	if err != nil {
		t.Fatalf("FromMapped rejects the edited file: %v", err)
	}
	return map[string]*model.CompiledSummary{"pair count 2": overlapping, "verts edited": edited}
}

// TestMulAdjFallback: the ineligible fixtures say so, on every view
// over them, and PageRank on them is the per-vertex answer bit for bit.
func TestMulAdjFallback(t *testing.T) {
	for name, cs := range ineligible(t) {
		n := cs.NumNodes()
		dst, x := make([]float64, n), integerVector(n, 1)
		for view, m := range map[string]adjMultiplier{"compiled": cs, "overlay": model.NewOverlay(cs)} {
			if m.MulAdj(dst, x) {
				t.Fatalf("%s: %s view reports eligible", name, view)
			}
		}
		checkOverlayDegrees(t, name, model.NewOverlay(cs))
		src := algos.OnCompiled(cs)
		if cs.Degrees(dst) || src.Degrees(dst) {
			t.Fatalf("%s: Degrees reports eligible", name)
		}
		got := algos.PageRank(src, 0.85, 20)
		src.Release()
		want := algos.PageRank(algos.FromFuncs(n, cs.NeighborsOf), 0.85, 20)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: PageRank[%d] = %v, per-vertex loop gives %v", name, v, got[v], want[v])
			}
		}
	}
}

// TestPageRankRepeatable: one view, two runs, identical bits — and
// within 1e-12 of the raw graph — for all three views. The overlay is
// rebuilt from its update stream for every run, so each run reads a
// freshly built correction index.
func TestPageRankRepeatable(t *testing.T) {
	g := testGraphs(6)["hier"]
	cs := summarize(t, "slugger", g, 6)
	ups := randomUpdates(rand.New(rand.NewSource(2)), g, 40)
	overlay := func() *model.DeltaOverlay {
		o, _, err := model.NewOverlay(cs).Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	sh, err := slug.SummarizeSharded(context.Background(), g, 3, slug.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sh.Queryable()
	if err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name string
		run  func() []float64
		raw  *graph.Graph
	}{
		{"compiled", func() []float64 { s := algos.OnCompiled(cs); defer s.Release(); return algos.PageRank(s, 0.85, 20) }, g},
		{"overlay", func() []float64 { s := algos.OnView(overlay()); defer s.Release(); return algos.PageRank(s, 0.85, 20) }, overlay().Decode()},
		{"sharded", func() []float64 { s := algos.OnCompiled(sc); defer s.Release(); return algos.PageRank(s, 0.85, 20) }, g},
	}
	for _, v := range views {
		first, second := v.run(), v.run()
		want := algos.PageRank(algos.Raw(v.raw), 0.85, 20)
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: rank[%d] = %v then %v", v.name, i, first[i], second[i])
			}
			if d := first[i] - want[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("%s: rank[%d] = %v, raw graph gives %v", v.name, i, first[i], want[i])
			}
		}
	}
}

// TestOverlayMulAdjBatchOrder: two overlays over one base that reach
// the same corrections through different batch orders give bit-equal
// MulAdj and PageRank — the floating-point sums must not depend on the
// history that built the overlay.
func TestOverlayMulAdjBatchOrder(t *testing.T) {
	g := testGraphs(8)["hier"]
	cs := summarize(t, "slugger", g, 8)
	seen := map[[2]int32]bool{}
	var ups []model.EdgeUpdate
	for _, up := range randomUpdates(rand.New(rand.NewSource(4)), g, 80) {
		if k := [2]int32{min(up.U, up.V), max(up.U, up.V)}; !seen[k] {
			seen[k] = true // one update per pair: any order ends in the same graph
			ups = append(ups, up)
		}
	}
	one, _, err := model.NewOverlay(cs).Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	many := model.NewOverlay(cs)
	rev := slices.Clone(ups)
	slices.Reverse(rev)
	for len(rev) > 0 {
		k := min(7, len(rev))
		if many, _, err = many.Apply(rev[:k]); err != nil {
			t.Fatal(err)
		}
		rev = rev[k:]
	}
	if one.Len() == 0 || one.Insertions() != many.Insertions() || one.Deletions() != many.Deletions() {
		t.Fatalf("overlays hold +%d -%d and +%d -%d", one.Insertions(), one.Deletions(), many.Insertions(), many.Deletions())
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = rng.Float64()
	}
	a, b := make([]float64, len(x)), make([]float64, len(x))
	if !one.MulAdj(a, x) || !many.MulAdj(b, x) {
		t.Fatal("overlay reported ineligible")
	}
	pr := func(o *model.DeltaOverlay) []float64 {
		s := algos.OnView(o)
		defer s.Release()
		return algos.PageRank(s, 0.85, 20)
	}
	for _, c := range []struct {
		what string
		a, b []float64
	}{{"MulAdj", a, b}, {"PageRank", pr(one), pr(many)}} {
		for i := range c.a {
			if math.Float64bits(c.a[i]) != math.Float64bits(c.b[i]) {
				t.Fatalf("%s[%d] = %v in one batch, %v in reversed batches", c.what, i, c.a[i], c.b[i])
			}
		}
	}
}

// TestMulAdjConcurrent races the lazy plan build, the scratch pool and
// the lazy degree vector (run under -race): every goroutine must get
// the same exact product and degrees.
func TestMulAdjConcurrent(t *testing.T) {
	g := testGraphs(7)["caveman"]
	cs := summarize(t, "slugger", g, 7)
	o, _, err := model.NewOverlay(cs).Apply(randomUpdates(rand.New(rand.NewSource(3)), g, 30))
	if err != nil {
		t.Fatal(err)
	}
	live := o.Decode()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := integerVector(g.NumNodes(), 5)
			dst := make([]float64, len(h))
			if !cs.Degrees(dst) {
				t.Error("Degrees: ineligible")
				return
			}
			for v, d := range dst {
				if want := len(g.Neighbors(int32(v))); d != float64(want) {
					t.Errorf("Degrees[%d] = %v, want %d", v, d, want)
					return
				}
			}
			for rep := 0; rep < 20; rep++ {
				if !o.MulAdj(dst, h) {
					t.Error("ineligible")
					return
				}
				for v := range dst {
					var want float64
					for _, u := range live.Neighbors(int32(v)) {
						want += h[u]
					}
					if dst[v] != want {
						t.Errorf("MulAdj[%d] = %v, want %v", v, dst[v], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMulAdjParity picks a graph seed, a registered algorithm and an
// update stream, and holds MulAdj — on the compiled summary, and on
// the overlay after the stream — to the neighbor sums.
func FuzzMulAdjParity(f *testing.F) {
	f.Add(int64(1), byte(0), []byte{0, 1, 0, 2, 3, 1, 0, 1, 1})
	f.Add(int64(7), byte(3), []byte{5, 6, 0, 5, 6, 1, 5, 6, 0})
	f.Add(int64(42), byte(4), []byte{})

	algorithms := slug.Algorithms()
	f.Fuzz(func(t *testing.T, seed int64, algo byte, stream []byte) {
		if len(stream) > 3*256 {
			t.Skip("stream too long")
		}
		g := graph.Caveman(4, 5, 6, seed)
		n := g.NumNodes()
		name := algorithms[int(algo)%len(algorithms)]
		cs := summarize(t, name, g, seed)
		checkMulAdj(t, name, cs, n, g.Neighbors)
		checkDegrees(t, name, cs, g.Neighbors)

		var ups []model.EdgeUpdate
		for i := 0; i+2 < len(stream); i += 3 {
			u, v := int32(stream[i])%int32(n), int32(stream[i+1])%int32(n)
			if u != v {
				ups = append(ups, model.EdgeUpdate{U: u, V: v, Delete: stream[i+2]&1 == 1})
			}
		}
		empty := model.NewOverlay(cs)
		checkOverlayDegrees(t, name+"+empty overlay", empty)
		o, _, err := empty.Apply(ups)
		if err != nil {
			t.Fatalf("Apply(%v): %v", ups, err)
		}
		checkMulAdj(t, name+"+overlay", o, n, o.Decode().Neighbors)
		checkOverlayDegrees(t, name+"+overlay", o)
	})
}

// pageRankBits are sha256 digests of the float64 bits of
// PageRank(0.85, 10) followed by MulAdj(integerVector(n, 1)), per
// registered algorithm and test graph (seed 1). A change to MulAdj's
// layout must leave every bit where it was: only the order of the
// additions into each accumulator fixes them, so a digest that moves
// means that order moved.
var pageRankBits = map[string]string{
	"mosso/hier":         "d97ef3e2742fee24f0333dd8cd2d0cd14228c6c9c5e9eba472a8380750c9708c",
	"mosso/caveman":      "ed133486e26e775e9f25ab862d906e23f46dc588df39d586f9f5b67a2b3c7a37",
	"randomized/hier":    "44838574d37445acd3be3d7f78127152c2c0970f52e710683cb5d784a9597125",
	"randomized/caveman": "a059b8a678693cd44ab60d5c373ea767318b526dce4ddb53d975c5932a63878e",
	"sags/hier":          "5a6cdb5dbadab22bc58a96c42dbc39d6327fb3e705221bd3effc1a3ad711cc8f",
	"sags/caveman":       "a12dbc7443eae60f7384b3952a8cbcb6917a0292d55762cdd3662d66864624ed",
	"slugger/hier":       "04cf689cfc82c426bfcd3254648348ea49ad8baa2ac6666d62456897c6df15e3",
	"slugger/caveman":    "89d2ac83337dd8c7d16fdff1734d4fd510b86dbdfea4aa6f3dffe8f3fa51f74d",
	"sweg/hier":          "42f89db300d8e73f2f8e30f04bf64ad0bd589d722e713311710c5ab985db014f",
	"sweg/caveman":       "a059b8a678693cd44ab60d5c373ea767318b526dce4ddb53d975c5932a63878e",
}

// TestPageRankBitsPinned holds the heap engine and the v2 engine
// reopened from WriteCompiledTo bytes to the pinned digests.
func TestPageRankBitsPinned(t *testing.T) {
	digest := func(cs *model.CompiledSummary) string {
		src := algos.OnCompiled(cs)
		defer src.Release()
		h := sha256.New()
		x := integerVector(cs.NumNodes(), 1)
		dst := make([]float64, len(x))
		if !cs.MulAdj(dst, x) {
			t.Fatal("reported ineligible")
		}
		for _, f := range append(algos.PageRank(src, 0.85, 10), dst...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	graphs := testGraphs(1)
	if len(pageRankBits) != 2*len(slug.Algorithms()) {
		t.Fatalf("%d digests pinned for algorithms %v", len(pageRankBits), slug.Algorithms())
	}
	for _, algo := range slug.Algorithms() {
		for _, name := range []string{"hier", "caveman"} {
			g := graphs[name]
			art, err := slug.Get(algo).Summarize(context.Background(), g, slug.WithSeed(1), slug.WithIterations(5))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := slug.WriteCompiledTo(&buf, art); err != nil {
				t.Fatal(err)
			}
			v2, err := slug.ReadFrom(&buf)
			if err != nil {
				t.Fatal(err)
			}
			key := algo + "/" + name
			for engine, a := range map[string]slug.Artifact{"heap": art, "v2": v2} {
				cs, err := a.Queryable()
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(cs); got != pageRankBits[key] {
					t.Errorf("%s (%s): digest %s, pinned %s", key, engine, got, pageRankBits[key])
				}
			}
		}
	}
}
