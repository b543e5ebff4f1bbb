// Package slug is the unified public API for graph summarization: one
// stable way to build, persist, load, decode and serve the output of
// every summarization algorithm in this repository — SLUGGER itself and
// the four baselines of the paper's evaluation (SWeG, MoSSo,
// Randomized, SAGS).
//
// The three core concepts:
//
//   - A [Summarizer] turns a graph into an [Artifact]. Obtain one from
//     the registry with [Get] (or register your own with [Register]);
//     tune a run with functional options such as [WithIterations] or
//     [WithSeed]; cancel a long build through the context.
//   - An [Artifact] is a finished summary. Every registered algorithm
//     returns a [*Hierarchical]: the paper's model includes the flat one
//     of Navlakha et al. as a special case, so a baseline's summary is
//     kept as height-1 trees at the same cost. An artifact reports its
//     encoding cost, decodes losslessly back to the input graph,
//     serializes through a versioned self-describing envelope
//     ([ReadFrom] restores it, algorithm tag included), and compiles
//     into the read-optimized CSR query engine for serving.
//   - [Event]s report build progress through [WithProgress].
//
// A complete round trip:
//
//	art, err := slug.Get("sweg").Summarize(ctx, g,
//		slug.WithIterations(20), slug.WithSeed(1))
//	if err != nil { ... }
//	slug.Save("out.slga", art)
//	art2, _ := slug.Load("out.slga")   // algorithm tag survives
//	cs, _ := art2.Queryable()          // serve it: cs.NeighborsOf(v), ...
//
// For large graphs the sharded path runs the same pipeline
// partition-parallel: [SummarizeSharded] cuts the graph into k shards,
// summarizes them concurrently and returns a [*Sharded] artifact. Its
// Queryable is one compiled summary over the global id space: the
// union of the shard hierarchies, with every cross-shard edge a
// leaf–leaf p-edge (see the package-level docs in sharded.go). Save
// writes that union as an ordinary artifact; [Sharded.Split] writes
// one file per shard for a federation, and [OpenSplit] reads it back.
package slug

import (
	"context"
	"io"

	"repro/internal/graph"
	"repro/internal/model"
)

// Summarizer is one summarization algorithm behind the unified API.
//
// Summarize must honor ctx: when the context is cancelled mid-build the
// call returns promptly with a nil Artifact and ctx.Err(), without
// leaking goroutines. Implementations must treat unknown options as
// inapplicable (ignore them) rather than failing, so one option set can
// drive every algorithm.
type Summarizer interface {
	// Name returns the canonical registry name (lowercase, e.g.
	// "slugger", "sweg").
	Name() string
	// Summarize builds a summary of g under the given options.
	Summarize(ctx context.Context, g *graph.Graph, opts ...Option) (Artifact, error)
}

// Artifact is a finished summary: the first-class output of every
// Summarizer.
type Artifact interface {
	// Algorithm returns the canonical name of the producing algorithm,
	// preserved across serialization.
	Algorithm() string
	// Cost returns the encoding cost of the summary, |P+| + |P-| + |H|
	// (Eq. (1)); for a baseline's height-1 trees this equals its flat
	// cost, Eq. (11).
	Cost() int64
	// Decode reconstructs the input graph exactly.
	Decode() *graph.Graph
	// WriterTo serializes the artifact through the versioned envelope
	// understood by ReadFrom; the header records the producing
	// algorithm.
	io.WriterTo
	// Queryable compiles the artifact into the concurrent CSR query
	// engine (neighbors, edge existence, graph algorithms on the
	// summary). The compiled form is built once and cached.
	Queryable() (*model.CompiledSummary, error)
}

// Stage identifies what part of a build an Event reports on.
type Stage string

const (
	// StageIteration reports progress within an algorithm's main loop:
	// merging iterations (SLUGGER, SWeG), streamed-edge chunks (MoSSo)
	// or LSH bands (SAGS).
	StageIteration Stage = "iteration"
	// StageDone is the final event of a successful build.
	StageDone Stage = "done"
)

// CostUnknown marks Event.Cost when the algorithm cannot report its
// current encoding cost cheaply mid-build.
const CostUnknown int64 = -1

// Event is one progress report delivered through WithProgress. Events
// are delivered synchronously from the building goroutine, in order:
// StageIteration events with strictly increasing Step, then exactly one
// StageDone event (cancelled builds end without a StageDone).
type Event struct {
	Algorithm string // canonical algorithm name
	Stage     Stage
	Step      int   // 1-based progress counter within the stage
	Total     int   // total steps when known, else 0
	Cost      int64 // current encoding cost, or CostUnknown
}
