package slug

// Sharded summarization: the partition-parallel face of the public
// API. SummarizeSharded cuts the input into k shards (internal/graph's
// deterministic edge-cut partitioner), runs the chosen registered
// algorithm on every shard concurrently under one shared worker
// budget, and returns a *Sharded artifact — per-shard summaries plus a
// boundary-edge sidecar — that decodes losslessly and serializes
// through a versioned "SLGS" envelope embedding ordinary per-shard
// "SLGA" payloads. It compiles into one ordinary CompiledSummary: the
// union of the shard hierarchies under global ids, with every boundary
// edge a leaf–leaf p-edge (model.Union).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/model"
)

// Sharded envelope:
//
//	magic "SLGS" | version u8 | algoLen uvarint | algo bytes
//	n uvarint | k uvarint
//	k shards: localN uvarint | globalID (delta-encoded uvarints)
//	          payloadLen uvarint | payload ("SLGA" artifact bytes)
//	boundaryCount uvarint | boundary edges (u uvarint, v uvarint; u < v,
//	                        lexicographically sorted)
//
// Each embedded payload is exactly what the shard artifact's own
// WriteTo produces, so a k=1 sharded file carries the byte-identical
// "SLGA" stream of the unsharded path.
const (
	shardedMagic   = "SLGS"
	shardedVersion = 1
)

// ErrShardedArtifact is returned by ReadFrom/Load when the stream holds
// a sharded envelope: load it with ReadShardedFrom/LoadSharded instead.
var ErrShardedArtifact = errors.New("slug: file holds a sharded artifact; load it with LoadSharded")

// Sharded is a finished sharded summary: one Artifact per shard (in
// shard-local vertex ids) plus the boundary edges between shards in
// global ids. It has the whole Artifact surface; WriteTo writes the
// sharded envelope, which LoadSharded reads back.
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

	compileOnce sync.Once
	compiled    *model.CompiledSummary
	compileErr  error
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

// Validate checks that the artifact decodes exactly to g, reporting the
// first discrepancy found.
func (a *Sharded) Validate(g *graph.Graph) error {
	return compareDecoded(a.Decode(), g)
}

// Queryable compiles the union of the shard hierarchies (model.Union:
// global ids, boundary edges as leaf–leaf p-edges, at exactly Cost())
// into the CSR query engine, once; the compiled form is cached and
// shared by later calls.
func (a *Sharded) Queryable() (*model.CompiledSummary, error) {
	a.compileOnce.Do(func() {
		shards := make([]*model.Summary, len(a.Shards))
		for s, art := range a.Shards {
			if h, ok := art.(*Hierarchical); ok {
				shards[s] = h.Summary
				continue
			}
			cs, err := art.Queryable()
			if err != nil {
				a.compileErr = fmt.Errorf("slug: compiling shard %d: %w", s, err)
				return
			}
			shards[s] = cs.ToSummary()
		}
		union, err := model.Union(shards, a.GlobalID, a.Boundary)
		if err != nil {
			a.compileErr = fmt.Errorf("slug: %w", err)
			return
		}
		a.compiled = union.Compile()
	})
	return a.compiled, a.compileErr
}

// WriteTo serializes the artifact through the versioned sharded
// envelope. Each shard's payload is the byte stream its own WriteTo
// produces, so shard payloads round-trip through the ordinary artifact
// reader.
func (a *Sharded) WriteTo(w io.Writer) (int64, error) {
	head, err := appendHeader(shardedMagic, shardedVersion, nil, a.algo)
	if err != nil {
		return 0, err
	}
	if len(a.Shards) != len(a.GlobalID) {
		return 0, fmt.Errorf("slug: %d shards but %d id maps", len(a.Shards), len(a.GlobalID))
	}
	if _, _, err := model.CheckSharding(a.GlobalID, a.Boundary); err != nil {
		return 0, fmt.Errorf("slug: %w", err)
	}
	head = binary.AppendUvarint(head, uint64(a.n))
	head = binary.AppendUvarint(head, uint64(len(a.Shards)))
	written := int64(0)
	n, err := w.Write(head)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var buf bytes.Buffer
	var scratch []byte
	for s, art := range a.Shards {
		scratch = scratch[:0]
		ids := a.GlobalID[s]
		scratch = binary.AppendUvarint(scratch, uint64(len(ids)))
		scratch = appendIDMap(scratch, ids)
		buf.Reset()
		if _, err := art.WriteTo(&buf); err != nil {
			return written, fmt.Errorf("slug: serializing shard %d: %w", s, err)
		}
		scratch = binary.AppendUvarint(scratch, uint64(buf.Len()))
		n, err := w.Write(scratch)
		written += int64(n)
		if err != nil {
			return written, err
		}
		pn, err := io.Copy(w, &buf)
		written += pn
		if err != nil {
			return written, err
		}
	}
	n, err = w.Write(appendBoundary(scratch[:0], a.Boundary))
	written += int64(n)
	return written, err
}

// appendBoundary appends the envelope's boundary section: the edge
// count, then each edge as two uvarints.
func appendBoundary(dst []byte, boundary [][2]int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(boundary)))
	for _, e := range boundary {
		dst = binary.AppendUvarint(dst, uint64(e[0]))
		dst = binary.AppendUvarint(dst, uint64(e[1]))
	}
	return dst
}

// ReadShardedFrom deserializes a sharded artifact written by WriteTo.
// Corrupt input yields an error, never a silently wrong artifact.
func ReadShardedFrom(r io.Reader) (*Sharded, error) {
	br := bufio.NewReader(r)
	algo, err := readHeader(br, "sharded artifact", shardedMagic, shardedVersion, nil)
	if err != nil {
		return nil, err
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("slug: reading vertex count: %w", err)
	}
	if n64 >= 1<<31 {
		return nil, fmt.Errorf("slug: implausible vertex count %d", n64)
	}
	n := int(n64)
	k64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("slug: reading shard count: %w", err)
	}
	if k64 < 1 || (k64 > uint64(n) && !(n == 0 && k64 == 1)) {
		return nil, fmt.Errorf("slug: implausible shard count %d for %d vertices", k64, n)
	}
	k := int(k64)

	a := &Sharded{algo: algo, n: n, Shards: make([]Artifact, 0, k), GlobalID: make([][]int32, 0, k)}
	total := 0
	var payload bytes.Buffer
	for s := 0; s < k; s++ {
		localN, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("slug: reading shard %d size: %w", s, err)
		}
		if localN > uint64(n-total) {
			return nil, fmt.Errorf("slug: shard %d claims %d of the %d unassigned vertices", s, localN, n-total)
		}
		total += int(localN)
		ids := make([]int32, localN)
		prev := int64(-1)
		for l := range ids {
			gap, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("slug: reading shard %d id map: %w", s, err)
			}
			// Clamped, so a hostile gap cannot wrap v to a negative id.
			v := prev + 1 + int64(min(gap, uint64(n)))
			if v >= int64(n) {
				return nil, fmt.Errorf("slug: shard %d maps local %d beyond vertex count", s, l)
			}
			ids[l] = int32(v)
			prev = v
		}
		payloadLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("slug: reading shard %d payload length: %w", s, err)
		}
		// CopyN into a growing buffer: a corrupt giant length fails at
		// EOF instead of provoking a giant up-front allocation.
		payload.Reset()
		if _, err := io.CopyN(&payload, br, int64(payloadLen)); err != nil {
			return nil, fmt.Errorf("slug: reading shard %d payload: %w", s, err)
		}
		art, err := ReadFrom(bytes.NewReader(payload.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("slug: decoding shard %d payload: %w", s, err)
		}
		if got := artifactNodes(art); got >= 0 && got != int(localN) {
			return nil, fmt.Errorf("slug: shard %d payload has %d vertices, id map has %d", s, got, localN)
		}
		a.Shards = append(a.Shards, art)
		a.GlobalID = append(a.GlobalID, ids)
	}
	if total != n {
		return nil, fmt.Errorf("slug: shards hold %d of %d vertices", total, n)
	}
	bc, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("slug: reading boundary count: %w", err)
	}
	// Plausibility cap only: a simple graph has fewer than n^2/2 edges.
	// A corrupt count below the cap is still caught — the decode loop
	// below hits EOF (or a malformed pair) before trusting it.
	if bc > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("slug: implausible boundary edge count %d", bc)
	}
	for i := uint64(0); i < bc; i++ {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("slug: reading boundary edge %d: %w", i, err)
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("slug: reading boundary edge %d: %w", i, err)
		}
		if u >= v || v >= uint64(n) {
			return nil, fmt.Errorf("slug: boundary edge %d (%d,%d) malformed", i, u, v)
		}
		a.Boundary = append(a.Boundary, [2]int32{int32(u), int32(v)})
	}
	// One owner per vertex; a sorted, repeat-free sidecar of cross-shard
	// edges (one that is not would load with a wrong Cost()).
	if _, _, err := model.CheckSharding(a.GlobalID, a.Boundary); err != nil {
		return nil, fmt.Errorf("slug: %w", err)
	}
	return a, nil
}

// artifactNodes returns the vertex count an artifact was built over, or
// -1 when the concrete type doesn't expose it cheaply.
func artifactNodes(a Artifact) int {
	switch t := a.(type) {
	case *Hierarchical:
		return t.Summary.N
	case *Mapped:
		return t.cs.NumNodes()
	}
	return -1
}

// LoadSharded reads a sharded artifact from a file written by Save.
func LoadSharded(path string) (*Sharded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //slugvet:ok syncerr (read-only descriptor; close failure cannot corrupt data already read)
	return ReadShardedFrom(f)
}

// SummarizeSharded partitions g into k shards (deterministic edge-cut,
// see graph.PartitionGraph) and summarizes every shard with the
// algorithm chosen by WithAlgorithm (default "slugger"), returning the
// per-shard artifacts plus the boundary-edge sidecar as one *Sharded
// artifact. The result is lossless — Decode reproduces g exactly — and
// deterministic: a fixed graph, shard count, algorithm and seed always
// produce the same artifact bytes, whatever the worker budget. With
// k = 1 the single shard's artifact is byte-identical to the unsharded
// Summarize path under the same options.
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
