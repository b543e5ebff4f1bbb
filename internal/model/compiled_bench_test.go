package model_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// Algorithm 4 on the compiled engine, on two SLUGGER summaries of 7 500
// vertices: the hierarchical-community graph the serving workloads
// share (deep chains, nested superedges, ids that cluster by
// community), and an Erdős–Rényi graph of about the same edge count,
// whose neighbor ids have no locality at all.
//
//	go test -run '^$' -bench CompiledQuery -count 10 ./internal/model
//
// NeighborsOf reports ns/op per query and ns/nbr per neighbor returned;
// HasEdge asks pairs of which half are edges (edges/op reads ≈ 0.5).

var benchSummaries = sync.OnceValue(func() map[string]*model.CompiledSummary {
	graphs := map[string]*graph.Graph{
		"hier": graph.HierCommunity(graph.HierParams{
			Levels: 4, Branching: 5, LeafSize: 12,
			Density: []float64{0.00002, 0.0008, 0.01, 0.2, 0.9},
		}, 1),
		"er": graph.ErdosRenyi(7500, 86000, 1),
	}
	out := make(map[string]*model.CompiledSummary, len(graphs))
	for name, g := range graphs {
		art, err := slug.Get("slugger").Summarize(context.Background(), g, slug.WithSeed(1), slug.WithIterations(10))
		if err != nil {
			panic(err)
		}
		if out[name], err = art.Queryable(); err != nil {
			panic(err)
		}
	}
	return out
})

func BenchmarkCompiledQuery(b *testing.B) {
	summaries := benchSummaries()
	for _, name := range []string{"hier", "er"} {
		cs := summaries[name]
		n := int32(cs.NumNodes())
		rng := rand.New(rand.NewSource(1))
		vs := make([]int32, 4096)
		pairs := make([][2]int32, 4096)
		for i := range vs {
			vs[i] = rng.Int31n(n)
			u := rng.Int31n(n)
			v := rng.Int31n(n)
			if nb := cs.NeighborsOf(u); i%2 == 0 && len(nb) > 0 {
				v = nb[rng.Intn(len(nb))]
			}
			pairs[i] = [2]int32{u, v}
		}
		b.Run("NeighborsOf/"+name, func(b *testing.B) {
			ctx := cs.AcquireCtx()
			defer cs.ReleaseCtx(ctx)
			nbrs := 0
			b.ResetTimer()
			for i := range b.N {
				nbrs += len(ctx.NeighborsOf(vs[i&(len(vs)-1)]))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/math.Max(1, float64(nbrs)), "ns/nbr")
		})
		b.Run("HasEdge/"+name, func(b *testing.B) {
			ctx := cs.AcquireCtx()
			defer cs.ReleaseCtx(ctx)
			edges := 0
			b.ResetTimer()
			for i := range b.N {
				if p := pairs[i&(len(pairs)-1)]; ctx.HasEdge(p[0], p[1]) {
					edges++
				}
			}
			b.ReportMetric(float64(edges)/float64(b.N), "edges/op")
		})
	}
}

// MulAdj and PageRank (d 0.85, T 10) on the hierarchy of the served
// graph above: the analytics workload's repetition, in-process.
//
//	go test -run '^$' -bench 'MulAdj|PageRank' -count 10 ./internal/model
func BenchmarkMulAdj(b *testing.B) {
	cs := benchSummaries()["hier"]
	x := make([]float64, cs.NumNodes())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	dst := make([]float64, len(x))
	if !cs.MulAdj(dst, x) {
		b.Fatal("reported ineligible")
	}
	b.ResetTimer()
	for range b.N {
		cs.MulAdj(dst, x)
	}
}

func BenchmarkPageRank(b *testing.B) {
	cs := benchSummaries()["hier"]
	src := algos.OnCompiled(cs)
	defer src.Release()
	algos.PageRank(src, 0.85, 10)
	b.ResetTimer()
	for range b.N {
		algos.PageRank(src, 0.85, 10)
	}
}
