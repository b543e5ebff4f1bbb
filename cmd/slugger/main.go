// Command slugger summarizes an edge-list graph with any registered
// algorithm (SLUGGER by default) through the unified pkg/slug API and
// reports the resulting artifact's statistics.
//
// Usage:
//
//	slugger -in graph.txt [-algo slugger] [-t 20] [-hb 0] [-seed 0] [-validate] [-v]
//	slugger -in graph.txt -save out.slgc -format v2   (zero-copy serving artifact)
//	slugger -in graph.txt -shards 4 [-workers 8] [-save union.slga]
//	slugger -in graph.txt -shards 4 -split shards/   (per-shard files + manifest)
//
// The input format is one "u v" pair per line ('#'/'%' comments
// allowed). -algo selects among slugger, sweg, mosso, randomized and
// sags. With -validate the artifact is decoded and compared
// edge-for-edge against the input (slow on large graphs). Interrupting
// a running build (Ctrl-C) cancels it promptly via context
// cancellation. Serving a saved artifact over HTTP is cmd/serve's job
// (serve -summary out.slga).
//
// With -shards k > 1 the graph is partitioned into k shards that are
// summarized concurrently under the -workers budget (per-shard
// summaries plus a boundary-edge sidecar); -validate and -decode work
// on the sharded path. The build is one hierarchy, the union of the
// shards with every cross-shard edge a leaf–leaf p-edge, and -save
// writes that union as an ordinary artifact in the -format encoding,
// for one process to load or serve. -split instead exports every shard
// as a standalone artifact file into a directory, with its id map and
// a manifest.json recording digests and the federation epoch — the
// input to serve -shard-role (one process per shard) and fedserve -manifest
// (the coordinator). -split honours -format: v1 exports portable
// envelopes, v2 exports zero-copy layouts; the epoch is the same
// either way.
//
// -format selects the -save encoding: v1 (default) writes the portable
// SLGA envelope, v2 writes the zero-copy compiled SLGC layout that
// serve -mmap boots from without decoding or recompiling. -load
// detects both automatically (v2 files load checksummed into memory;
// use serve -mmap to map them).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/pkg/slug"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("slugger: ")

	var (
		in       = flag.String("in", "", "input edge-list file (required unless -load)")
		algo     = flag.String("algo", "slugger", "summarization algorithm: "+strings.Join(slug.Algorithms(), ", "))
		t        = flag.Int("t", 20, "number of merging iterations T (slugger, sweg)")
		hb       = flag.Int("hb", 0, "height bound Hb, 0 = unbounded (slugger)")
		seed     = flag.Int64("seed", 0, "random seed")
		validate = flag.Bool("validate", false, "decode the artifact and verify losslessness")
		verbose  = flag.Bool("v", false, "print per-iteration progress")
		workers  = flag.Int("workers", 1, "group-scheduler worker pool size for the merge phase (1 = serial; any value gives byte-identical output)")
		save     = flag.String("save", "", "write the artifact to this file (binary, self-describing)")
		load     = flag.String("load", "", "load a saved artifact and report its statistics")
		decodeTo = flag.String("decode", "", "decode the artifact back to an edge-list file")
		shards   = flag.Int("shards", 1, "partition the graph into this many shards and summarize them concurrently (1 = unsharded)")
		split    = flag.String("split", "", "with -shards: also export each shard standalone into this directory plus a digest manifest, for serve -shard-role / fedserve")
		format   = flag.String("format", "v1", "artifact encoding for -save: v1 (portable SLGA envelope) or v2 (zero-copy compiled SLGC layout, bootable with serve -mmap)")
	)
	flag.Parse()
	if *format != "v1" && *format != "v2" {
		log.Fatalf("-format %q: must be v1 or v2", *format)
	}
	if *split != "" && *shards <= 1 {
		log.Fatal("-split exports the shards of a sharded build: it requires -shards > 1")
	}
	// saveArtifact persists art to path in the selected encoding.
	saveArtifact := func(path string, art slug.Artifact) error {
		if *format == "v2" {
			return slug.SaveCompiled(path, art)
		}
		return slug.Save(path, art)
	}
	if *load != "" {
		art, err := slug.Load(*load)
		if err != nil {
			log.Fatalf("loading artifact: %v", err)
		}
		describe(art, 0, 0)
		finish(art, *decodeTo)
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	g, err := graph.LoadEdgeList(*in)
	if err != nil {
		log.Fatalf("loading %s: %v", *in, err)
	}
	fmt.Printf("input: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	opts := []slug.Option{
		slug.WithIterations(*t),
		slug.WithHeightBound(*hb),
		slug.WithSeed(*seed),
		slug.WithWorkers(*workers),
	}
	if *verbose {
		opts = append(opts, slug.WithProgress(func(ev slug.Event) {
			if ev.Stage != slug.StageIteration {
				return
			}
			if ev.Cost != slug.CostUnknown {
				fmt.Printf("  step %3d/%d: cost %d (%.3f relative)\n",
					ev.Step, ev.Total, ev.Cost, float64(ev.Cost)/float64(g.NumEdges()))
			} else {
				fmt.Printf("  step %3d/%d\n", ev.Step, ev.Total)
			}
		}))
	}
	// Ctrl-C cancels the build promptly instead of killing the process
	// mid-write. The handler is released right after the build so a
	// later Ctrl-C still terminates -validate/-save normally.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	start := time.Now()
	var art slug.Artifact
	if *shards > 1 {
		art, err = slug.SummarizeSharded(ctx, g, *shards, append(opts, slug.WithAlgorithm(*algo))...)
	} else {
		art, err = slug.Get(*algo).Summarize(ctx, g, opts...)
	}
	elapsed := time.Since(start)
	stop()
	if err != nil {
		log.Fatalf("summarizing with %s into %d shard(s): %v", *algo, *shards, err)
	}
	describe(art, g.NumEdges(), elapsed)

	if *validate {
		if err := slug.Validate(art, g); err != nil {
			log.Fatalf("validation FAILED: %v", err)
		}
		fmt.Println("validation: OK (lossless)")
	}
	if *save != "" {
		if err := saveArtifact(*save, art); err != nil {
			log.Fatalf("saving artifact: %v", err)
		}
		fmt.Printf("artifact written to %s (%s)\n", *save, *format)
	}
	if *split != "" {
		man, err := art.(*slug.Sharded).Split(*split, *format)
		if err != nil {
			log.Fatalf("splitting artifact: %v", err)
		}
		fmt.Printf("split: %d shard files (%s) + %s in %s (epoch %.12s...)\n",
			man.NumShards(), *format, slug.ManifestFilename, *split, man.Epoch)
	}
	finish(art, *decodeTo)
}

// describe prints an artifact's statistics; edges and elapsed are zero
// when unknown (the -load path).
func describe(art slug.Artifact, edges int64, elapsed time.Duration) {
	fmt.Printf("artifact: algorithm=%s cost=%d", art.Algorithm(), art.Cost())
	if edges > 0 {
		fmt.Printf(" (relative size %.4f)", float64(art.Cost())/float64(edges))
	}
	fmt.Println()
	switch a := art.(type) {
	case *slug.Hierarchical:
		s := a.Summary
		fmt.Printf("hierarchical model: %d supernodes, |P+|=%d |P-|=%d |H|=%d\n",
			s.NumSupernodes(), s.PCount(), s.NCount(), s.HCount())
		fmt.Printf("hierarchy: max height %d, avg leaf depth %.2f\n",
			s.MaxHeight(), s.AvgLeafDepth())
	case *slug.Mapped:
		cs, _ := a.Queryable()
		fmt.Printf("compiled model (%s): %d vertices, %d supernodes, %d superedges, %d bytes\n",
			a.Format(), cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges(), a.MappedBytes())
	case *slug.Sharded:
		for s, shard := range a.Shards {
			fmt.Printf("  shard %d: %d vertices, cost %d\n", s, len(a.GlobalID[s]), shard.Cost())
		}
		fmt.Printf("  boundary: %d cross-shard edges\n", len(a.Boundary))
	}
	if elapsed > 0 {
		fmt.Printf("time: %s\n", elapsed.Round(time.Millisecond))
	}
}

// finish handles the output action shared by every path (build or
// load): decoding the artifact to an edge list.
func finish(art slug.Artifact, decodeTo string) {
	if decodeTo == "" {
		return
	}
	if err := graph.SaveEdgeList(decodeTo, art.Decode()); err != nil {
		log.Fatalf("decoding: %v", err)
	}
	fmt.Printf("decoded graph written to %s\n", decodeTo)
}
