package slug

// Sharded summarization: the partition-parallel face of the public
// API. SummarizeSharded cuts the input into k shards (internal/graph's
// deterministic edge-cut partitioner), runs the chosen registered
// algorithm on every shard concurrently under one shared worker
// budget, and returns a *Sharded artifact — per-shard summaries plus a
// boundary-edge sidecar — that decodes losslessly. It is one ordinary
// hierarchy: the union of the shard hierarchies under global ids, with
// every boundary edge a leaf–leaf p-edge (model.Union). That union is
// what it compiles to and what WriteTo saves (an ordinary "SLGA"
// stream, which Load reads back as a *Hierarchical); Split writes the
// other on-disk form, one file per shard for a federation, which
// OpenSplit reads back as a *Sharded.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/model"
)

// Sharded is a finished sharded summary: one Artifact per shard (in
// shard-local vertex ids) plus the boundary edges between shards in
// global ids. It has the whole Artifact surface; WriteTo writes the
// union of the shards as one ordinary artifact.
type Sharded struct {
	algo string
	n    int
	// Shards[s] is shard s's artifact over local ids 0..len(GlobalID[s])-1.
	Shards []Artifact
	// GlobalID[s][l] is the global id of shard s's local vertex l
	// (strictly ascending per shard, a bijection onto 0..n-1 overall).
	GlobalID [][]int32
	// Boundary holds the cross-shard edges {u,v}, u < v, sorted
	// lexicographically, in global ids.
	Boundary [][2]int32

	unionOnce sync.Once
	whole     *Hierarchical
	unionErr  error
}

// A sharded summary is an Artifact like any other: cmd/serve serves one
// through the same static path.
var _ Artifact = (*Sharded)(nil)

// Algorithm returns the canonical name of the per-shard algorithm.
func (a *Sharded) Algorithm() string { return a.algo }

// NumNodes returns the total number of vertices across shards.
func (a *Sharded) NumNodes() int { return a.n }

// NumShards returns the number of shards.
func (a *Sharded) NumShards() int { return len(a.Shards) }

// Cost returns the sharded encoding cost: the sum of the per-shard
// encoding costs plus one edge per boundary entry (the sidecar stores
// cross-shard edges uncompressed — the price of shard independence).
func (a *Sharded) Cost() int64 {
	total := int64(len(a.Boundary))
	for _, s := range a.Shards {
		total += s.Cost()
	}
	return total
}

// Decode reconstructs the input graph exactly: every shard's decoded
// subgraph translated to global ids, plus the boundary edges.
func (a *Sharded) Decode() *graph.Graph {
	b := graph.NewBuilder(a.n)
	for s, art := range a.Shards {
		gid := a.GlobalID[s]
		art.Decode().ForEachEdge(func(u, v int32) { b.AddEdge(gid[u], gid[v]) })
	}
	for _, e := range a.Boundary {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// union builds the shards' union hierarchy (model.Union: global ids,
// boundary edges as leaf–leaf p-edges, at exactly Cost()) once; later
// calls share it, and its compiled form.
func (a *Sharded) union() (*Hierarchical, error) {
	a.unionOnce.Do(func() {
		shards := make([]*model.Summary, len(a.Shards))
		for s, art := range a.Shards {
			if h, ok := art.(*Hierarchical); ok {
				shards[s] = h.Summary
				continue
			}
			cs, err := art.Queryable()
			if err != nil {
				a.unionErr = fmt.Errorf("slug: compiling shard %d: %w", s, err)
				return
			}
			shards[s] = cs.ToSummary()
		}
		union, err := model.Union(shards, a.GlobalID, a.Boundary)
		if err != nil {
			a.unionErr = fmt.Errorf("slug: %w", err)
			return
		}
		a.whole = NewHierarchical(a.algo, union)
	})
	return a.whole, a.unionErr
}

// Queryable compiles the union of the shard hierarchies into the CSR
// query engine, once; the compiled form is cached and shared by later
// calls.
func (a *Sharded) Queryable() (*model.CompiledSummary, error) {
	h, err := a.union()
	if err != nil {
		return nil, err
	}
	return h.Queryable()
}

// WriteTo writes the union of the shard hierarchies as an ordinary
// "SLGA" artifact: Load reads it back as a *Hierarchical at the same
// Cost(), and for k = 1 its bytes are the unsharded artifact's.
func (a *Sharded) WriteTo(w io.Writer) (int64, error) {
	h, err := a.union()
	if err != nil {
		return 0, err
	}
	return h.WriteTo(w)
}

// SummarizeSharded partitions g into k shards (deterministic edge-cut,
// see graph.PartitionGraph) and summarizes every shard with the
// algorithm chosen by WithAlgorithm (default "slugger"), returning the
// per-shard artifacts plus the boundary-edge sidecar as one *Sharded
// artifact. The result is lossless — Decode reproduces g exactly — and
// deterministic: a fixed graph, shard count, algorithm and seed always
// produce the same artifact bytes, whatever the worker budget. With
// k = 1 its bytes are those of the unsharded Summarize path under the
// same options.
//
// Shards build concurrently under one worker budget: WithWorkers
// bounds the total parallelism (shard-level concurrency times each
// shard's merge-phase pool; default GOMAXPROCS). Per-shard workers only
// help a shard with more than one candidate group, i.e. > 500 roots: a
// smaller shard builds serially and its share of the budget idles.
// Progress events report completed shards: StageIteration with Step =
// shards finished and Total = k, then one StageDone carrying the final
// cost. Cancelling ctx stops all in-flight shard builds promptly.
func SummarizeSharded(ctx context.Context, g *graph.Graph, k int, opts ...Option) (*Sharded, error) {
	cfg := resolve(opts)
	algo := cfg.algorithm
	if algo == "" {
		algo = "slugger"
	}
	summarizer, ok := Lookup(algo)
	if !ok {
		return nil, fmt.Errorf("slug: unknown algorithm %q (have %v)", algo, Algorithms())
	}
	part, err := graph.PartitionGraph(g, k)
	if err != nil {
		return nil, err
	}

	budget := cfg.workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	conc := min(k, budget)
	perShard := budget / conc

	// Per-shard options: the caller's, then the split worker budget and
	// a silenced progress callback (shard completions are reported
	// below instead; appended options override earlier ones).
	shardOpts := make([]Option, 0, len(opts)+2)
	shardOpts = append(shardOpts, opts...)
	shardOpts = append(shardOpts, WithWorkers(perShard), WithProgress(nil))

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, conc)
		mu       sync.Mutex
		done     int
		firstErr error
	)
	results := make([]Artifact, k)
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cctx.Err() != nil {
				return
			}
			art, err := summarizer.Summarize(cctx, part.Subgraphs[s], shardOpts...)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("slug: summarizing shard %d: %w", s, err)
				}
				mu.Unlock()
				cancel()
				return
			}
			results[s] = art
			mu.Lock()
			done++
			cfg.emit(Event{Algorithm: algo, Stage: StageIteration, Step: done, Total: k, Cost: CostUnknown})
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		if err := ctx.Err(); err != nil {
			return nil, err // cancelled from outside: report the cause
		}
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := &Sharded{algo: algo, n: g.NumNodes(), Shards: results, GlobalID: part.GlobalID, Boundary: part.Boundary}
	cfg.emit(Event{Algorithm: algo, Stage: StageDone, Step: k, Total: k, Cost: sh.Cost()})
	return sh, nil
}
