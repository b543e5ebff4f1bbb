// Quickstart: summarize a small social-style graph through the unified
// pkg/slug API, inspect the hierarchical artifact, and verify
// losslessness.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/pkg/slug"
)

func main() {
	// A "caveman" social network: 8 tight friend groups of 10 people,
	// ring-connected, with a few random acquaintances across groups.
	g := graph.Caveman(8, 10, 12, 42)
	fmt.Printf("input graph: %d people, %d friendships\n", g.NumNodes(), g.NumEdges())

	// Summarize with SLUGGER under the paper's default settings
	// (T = 20 iterations). Every algorithm in slug.Algorithms() runs
	// through this same call.
	artifact, err := slug.Get("slugger").Summarize(context.Background(), g,
		slug.WithIterations(20), slug.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsummary artifact (algorithm %q):\n", artifact.Algorithm())
	fmt.Printf("  encoding cost:  %d (vs %d edges => %.1f%% of input size)\n",
		artifact.Cost(), g.NumEdges(), 100*float64(artifact.Cost())/float64(g.NumEdges()))

	// SLUGGER artifacts wrap the hierarchical model; reach through for
	// its model-specific statistics.
	summary := artifact.(*slug.Hierarchical).Summary
	fmt.Printf("  supernodes:     %d\n", summary.NumSupernodes())
	fmt.Printf("  p-edges:        %d\n", summary.PCount())
	fmt.Printf("  n-edges:        %d\n", summary.NCount())
	fmt.Printf("  h-edges:        %d\n", summary.HCount())
	fmt.Printf("  max height:     %d, avg leaf depth %.2f\n",
		summary.MaxHeight(), summary.AvgLeafDepth())

	// Partial decompression (Algorithm 4): neighbors of one vertex,
	// without decoding the rest of the model. Queries run on the
	// compiled engine, the form a server answers from.
	engine, err := artifact.Queryable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nneighbors of person 0 (from the summary): %v\n", engine.NeighborsOf(0))
	fmt.Printf("neighbors of person 0 (from the graph):   %v\n", g.Neighbors(0))

	// The artifact represents the graph exactly.
	if err := slug.Validate(artifact, g); err != nil {
		log.Fatalf("losslessness violated: %v", err)
	}
	fmt.Println("\nvalidation: the artifact reproduces every edge exactly ✓")
}
