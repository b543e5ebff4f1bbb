package model

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
)

// The overlay under the two update regimes of the live path: endpoints
// drawn uniformly, or zipfian (s = 1) through a seeded permutation, as
// the benchmark's read stream draws them. With zipfian endpoints a few
// hot vertices collect most corrections, which is what a write or read
// that costs O(corrections of the vertex) cannot stand.
//
//	go test -run '^$' -bench Overlay -count 10 ./internal/model

const (
	benchNodes   = 7500
	benchBatches = 2500 // four-edge batches: 10⁴ corrections
	benchBatch   = 4
)

// vertexSampler draws vertex ids: uniform, or zipfian over ranks mapped
// through a permutation.
type vertexSampler struct {
	cdf  []float64 // nil: uniform
	perm []int
}

func newVertexSampler(zipf bool, rng *rand.Rand) vertexSampler {
	if !zipf {
		return vertexSampler{}
	}
	z := vertexSampler{cdf: make([]float64, benchNodes), perm: rng.Perm(benchNodes)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / float64(i+1)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z vertexSampler) sample(rng *rand.Rand) int32 {
	if z.cdf == nil {
		return rng.Int31n(benchNodes)
	}
	return int32(z.perm[min(sort.SearchFloat64s(z.cdf, rng.Float64()), benchNodes-1)])
}

// benchOverlayStream returns a sparse base (about eight neighbors per
// vertex, compiled flat) and benchBatches batches in which every update
// is effective: a quarter delete a base edge of a sampled vertex, the
// rest insert a pair of sampled vertices absent from the live graph.
func benchOverlayStream(z vertexSampler, seed int64) (*CompiledSummary, [][]EdgeUpdate) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(benchNodes)
	for v := int32(0); v < benchNodes; v++ {
		for i := 0; i < 4; i++ {
			if u := rng.Int31n(benchNodes); u != v {
				b.AddEdge(v, u)
			}
		}
	}
	g := b.Build()
	key := func(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }
	touched := map[[2]int32]bool{}
	next := func() EdgeUpdate {
		for {
			u := z.sample(rng)
			if nb := g.Neighbors(u); rng.Intn(4) == 0 && len(nb) > 0 {
				if v := nb[rng.Intn(len(nb))]; !touched[key(u, v)] {
					touched[key(u, v)] = true
					return EdgeUpdate{U: u, V: v, Delete: true}
				}
				continue
			}
			if v := z.sample(rng); u != v && !touched[key(u, v)] && !g.HasEdge(u, v) {
				touched[key(u, v)] = true
				return EdgeUpdate{U: u, V: v}
			}
		}
	}
	batches := make([][]EdgeUpdate, benchBatches)
	for i := range batches {
		for range benchBatch {
			batches[i] = append(batches[i], next())
		}
	}
	return compileTrivial(g), batches
}

// BenchmarkOverlayApply grows an overlay from empty to 10⁴ corrections,
// one four-edge batch at a time. ns/batch is the mean apply; the first
// and the last thousand batches are reported apart, so a write whose
// cost grows with the overlay shows as last1k > first1k.
func BenchmarkOverlayApply(b *testing.B) {
	for _, regime := range []string{"uniform", "zipf"} {
		b.Run(regime, func(b *testing.B) {
			cs, batches := benchOverlayStream(newVertexSampler(regime == "zipf", rand.New(rand.NewSource(1))), 2)
			var first, last, total time.Duration
			b.ResetTimer()
			for range b.N {
				o := NewOverlay(cs)
				for i, ups := range batches {
					t0 := time.Now()
					o, _ = o.applyValidated(ups)
					d := time.Since(t0)
					total += d
					if i < 1000 {
						first += d
					} else if i >= len(batches)-1000 {
						last += d
					}
				}
				if o.Len() != benchBatches*benchBatch {
					b.Fatalf("%d corrections, want %d", o.Len(), benchBatches*benchBatch)
				}
			}
			perBatch := func(d time.Duration, k int) float64 { return float64(d.Nanoseconds()) / float64(b.N*k) }
			b.ReportMetric(perBatch(total, len(batches)), "ns/batch")
			b.ReportMetric(perBatch(first, 1000), "first1k-ns/batch")
			b.ReportMetric(perBatch(last, 1000), "last1k-ns/batch")
		})
	}
}

// BenchmarkOverlayNeighborsOf reads through an overlay of 10⁴
// corrections, query vertices drawn like the update endpoints. A zipf
// query lands on a hot vertex with a long answer, so ns/nbr — time per
// neighbor returned — is the figure to compare across regimes.
func BenchmarkOverlayNeighborsOf(b *testing.B) {
	for _, regime := range []string{"uniform", "zipf"} {
		b.Run(regime, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			z := newVertexSampler(regime == "zipf", rng)
			cs, batches := benchOverlayStream(z, 2)
			o := NewOverlay(cs)
			for _, ups := range batches {
				o, _ = o.applyValidated(ups)
			}
			qs := make([]int32, 4096)
			for i := range qs {
				qs[i] = z.sample(rng)
			}
			c := o.AcquireCtx()
			defer o.ReleaseCtx(c)
			nbrs := 0
			b.ResetTimer()
			for i := range b.N {
				nbrs += len(c.NeighborsOf(qs[i&(len(qs)-1)]))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/math.Max(1, float64(nbrs)), "ns/nbr")
		})
	}
}
