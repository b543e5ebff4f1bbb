package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzSummarizeLossless drives SLUGGER with fuzz-generated edge lists
// and asserts exact reconstruction. With par set it runs Workers 3 over
// candidate groups of at most 8 roots — so groups of one wave commit
// concurrently, rebuilding entries of one table in place — and asserts
// the summary of Workers 1 under the same settings. The seed corpus covers
// the shapes that exercise distinct encoder paths (cliques, bicliques,
// paths, isolated vertices); `go test -fuzz=FuzzSummarizeLossless`
// explores beyond them.
func FuzzSummarizeLossless(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2}, uint8(3), uint8(1), false)                   // triangle
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(2), uint8(7), false)                   // matching
	f.Add([]byte{0, 4, 0, 5, 1, 4, 1, 5, 2, 4, 2, 5}, uint8(5), uint8(0), false) // biclique
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 4}, uint8(4), uint8(9), false)             // path
	f.Add([]byte{}, uint8(1), uint8(0), false)                                   // empty
	f.Add([]byte{0, 1, 0, 2, 1, 2, 3, 4, 3, 5, 4, 5, 6, 7, 6, 8, 7, 8, 9, 10, 9, 11, 10, 11,
		12, 13, 12, 14, 13, 14, 2, 3, 5, 6, 8, 9, 11, 12, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}, uint8(7), uint8(4), true) // triangles in a ring, concurrent
	f.Fuzz(func(t *testing.T, raw []byte, tIter uint8, seed uint8, par bool) {
		if len(raw) > 300 {
			return
		}
		b := graph.NewBuilder(0)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%64), int32(raw[i+1]%64))
		}
		g := b.Build()
		iters := int(tIter%8) + 1
		cfg := Config{T: iters, Seed: int64(seed)}
		if par {
			cfg.MaxGroup, cfg.Workers = 8, 3
		}
		sum, stats := Summarize(g, cfg)
		if err := sum.Validate(g); err != nil {
			t.Fatalf("lossless violation (T=%d seed=%d workers=%d): %v", iters, seed, cfg.Workers, err)
		}
		if sum.Cost() > g.NumEdges() {
			t.Fatalf("cost %d exceeds |E| %d", sum.Cost(), g.NumEdges())
		}
		if sum.Cost() != stats.FinalCost {
			t.Fatalf("stats cost mismatch")
		}
		if par {
			cfg.Workers = 1
			serial, _ := Summarize(g, cfg)
			var x, y bytes.Buffer
			sum.WriteTo(&x)
			serial.WriteTo(&y)
			if !bytes.Equal(x.Bytes(), y.Bytes()) {
				t.Fatalf("Workers 3 and Workers 1 summaries differ (T=%d seed=%d)", iters, seed)
			}
		}
	})
}

// FuzzScoreMatchesPlan drives a state through a fuzz-chosen sequence of
// merges on a fuzz-generated graph and asserts, for every ordered root
// pair of the result, that scoreMerge and the planner agree
// (checkScoreMatchesPlan) — optionally with every cross entry flattened
// first, so that loose entries take part.
func FuzzScoreMatchesPlan(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3}, []byte{0, 1, 2, 3}, uint8(0), false)                        // triangle + tail
	f.Add([]byte{0, 4, 0, 5, 1, 4, 1, 5, 2, 4, 2, 5}, []byte{0, 1, 4, 5, 0, 2}, uint8(2), true)       // biclique, sides merged
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4}, []byte{0, 1, 2, 3, 0, 2}, uint8(0), true) // clique + pendant
	f.Fuzz(func(t *testing.T, raw, merges []byte, hb uint8, flatten bool) {
		if len(raw) > 200 || len(merges) > 64 {
			return
		}
		b := graph.NewBuilder(0)
		for i := 0; i+1 < len(raw); i += 2 {
			b.AddEdge(int32(raw[i]%24), int32(raw[i+1]%24))
		}
		g := b.Build()
		if g.NumNodes() < 2 {
			return
		}
		st := newState(g, rand.New(rand.NewSource(1)))
		ctx := st.getCtx()
		defer st.putCtx(ctx)
		for i := 0; i+1 < len(merges); i += 2 {
			roots := st.roots()
			x, y := roots[int(merges[i])%len(roots)], roots[int(merges[i+1])%len(roots)]
			if x != y {
				st.tryMerge(ctx, x, y, 0)
			}
		}
		checkAdjacency(t, st)
		if flatten {
			flattenCrossEntries(st, ctx)
		}
		for _, a := range st.roots() {
			checkScoreMatchesPlan(t, st, ctx, a, int(hb%5))
		}
	})
}

// FuzzSideKernel compares sideKernel with the reference DP
// (bipProblem.sideCosts, checkSideKernel) on fuzz-chosen atom counts,
// atom sizes up to 2^20 — products past 2^31 — and block counts anywhere
// in [0, size product].
func FuzzSideKernel(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint32(0), uint32(0), uint32(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(3), uint32(4), uint32(1), uint32(2), uint32(7), uint64(9), uint64(3), uint64(0), uint64(40))
	f.Add(uint8(3), uint32(1<<20-1), uint32(1<<19), uint32(1<<20-2), uint32(3), uint64(1<<39), uint64(7), uint64(1<<38), uint64(5))
	f.Fuzz(func(t *testing.T, shape uint8, l0, l1, r0, r1 uint32, c00, c01, c10, c11 uint64) {
		nl, nr := 1+int(shape&1), 1+int(shape>>1&1)
		size := func(x uint32) int64 { return 1 + int64(x%(1<<20)) }
		ls, rs := [2]int64{size(l0), size(l1)}, [2]int64{size(r0), size(r1)}
		ls[1] *= int64(nl - 1)
		rs[1] *= int64(nr - 1)
		var bc blockCounts
		for k, c := range []uint64{c00, c01, c10, c11} {
			if i, j := k/2, k%2; i < nl && j < nr {
				bc[i][j] = int64(c % uint64(ls[i]*rs[j]+1))
			}
		}
		checkSideKernel(t, bc, ls, rs, nl, nr)
	})
}
