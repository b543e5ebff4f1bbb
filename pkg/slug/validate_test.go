package slug_test

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// TestValidateRejectsCountsOutsideZeroOne: a pair covered by more
// p-edges than one, or by an n-edge with nothing to cancel, fails
// slug.Validate by the {0,1} restriction (Sect. III-B3), even where the
// decoded graph alone could not tell — as a v1 artifact, reopened from
// the v2 layout, and made live.
func TestValidateRejectsCountsOutsideZeroOne(t *testing.T) {
	g := graph.FromEdges(3, [][2]int32{{0, 1}})
	roots := []int32{-1, -1, -1}
	for name, edges := range map[string][]model.Edge{
		"doubled p-edge":   {{A: 0, B: 1, Sign: 1}, {A: 0, B: 1, Sign: 1}},
		"uncovered n-edge": {{A: 0, B: 1, Sign: 1}, {A: 0, B: 2, Sign: -1}},
	} {
		for kind, art := range validateKinds(t, slug.NewHierarchical("slugger", model.New(3, roots, edges))) {
			if err := slug.Validate(art, g); err == nil || !strings.Contains(err.Error(), "outside {0,1}") {
				t.Fatalf("%s, %s: Validate = %v, want a count outside {0,1}", name, kind, err)
			}
		}
	}

	// A live edge that g lacks is named.
	art := slug.NewHierarchical("slugger", model.New(3, roots, []model.Edge{{A: 0, B: 1, Sign: 1}}))
	up, err := slug.NewUpdatable(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := slug.Validate(up, g); err != nil {
		t.Fatalf("before the update: %v", err)
	}
	if _, err := up.ApplyUpdates([]model.EdgeUpdate{{U: 2, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := slug.Validate(up, g); err == nil || !strings.Contains(err.Error(), "(1,2)") {
		t.Fatalf("overlay inserts (1,2): Validate = %v, want the pair named", err)
	}
}

// validateKinds returns art as itself, as a v2 artifact (SaveCompiled,
// OpenMapped) and as an Updatable.
func validateKinds(t *testing.T, art slug.Artifact) map[string]slug.Artifact {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.slgc")
	if err := slug.SaveCompiled(path, art); err != nil {
		t.Fatal(err)
	}
	m, err := slug.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	up, err := slug.NewUpdatable(art)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]slug.Artifact{"v1": art, "v2": m, "updatable": up}
}

type validateCase struct {
	art slug.Artifact
	g   *graph.Graph
}

var validateCases = sync.OnceValue(func() map[string]validateCase {
	graphs := map[string]*graph.Graph{
		"hier": graph.HierCommunity(graph.HierParams{
			Levels: 4, Branching: 5, LeafSize: 12,
			Density: []float64{0.00002, 0.0008, 0.01, 0.2, 0.9},
		}, 1),
		"ba": graph.BarabasiAlbert(20000, 5, 1),
	}
	out := make(map[string]validateCase, len(graphs))
	for name, g := range graphs {
		art, err := slug.Get("slugger").Summarize(context.Background(), g, slug.WithSeed(1), slug.WithIterations(10))
		if err != nil {
			panic(err)
		}
		out[name] = validateCase{art, g}
	}
	return out
})

// BenchmarkValidate times slug.Validate, the losslessness check behind
// slugger -validate, on SLUGGER summaries of the hierarchical-community
// graph the serving workloads share and of a scale-free graph.
//
//	go test -run '^$' -bench Validate -count 10 ./pkg/slug
func BenchmarkValidate(b *testing.B) {
	cases := validateCases()
	for _, name := range []string{"hier", "ba"} {
		c := cases[name]
		b.Run(name, func(b *testing.B) {
			for range b.N {
				if err := slug.Validate(c.art, c.g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
