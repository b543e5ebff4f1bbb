package datasets

import (
	"testing"

	"repro/internal/graph"
)

func TestAllSixteenDatasets(t *testing.T) {
	specs := All()
	if len(specs) != 16 {
		t.Fatalf("expected 16 datasets, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset name %s", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestGenerateSmallScaleNonEmpty(t *testing.T) {
	for _, s := range All() {
		g := s.Generate(0.05, 1)
		if g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph at scale 0.05", s.Name)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s: no nodes", s.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, s := range All()[:4] {
		a := s.Generate(0.05, 9)
		b := s.Generate(0.05, 9)
		if !graph.Equal(a, b) {
			t.Fatalf("%s: generation not deterministic", s.Name)
		}
	}
}

func TestScaleGrowsGraphs(t *testing.T) {
	s, err := ByName("PR")
	if err != nil {
		t.Fatal(err)
	}
	small := s.Generate(0.05, 2)
	big := s.Generate(0.2, 2)
	if big.NumEdges() <= small.NumEdges() {
		t.Fatalf("scale 0.2 (%d edges) not larger than 0.05 (%d edges)",
			big.NumEdges(), small.NumEdges())
	}
	// Invalid scale falls back to default.
	if g := s.Generate(-1, 2); g.NumEdges() == 0 {
		t.Fatal("negative scale should fall back to default")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("U5"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestNamesOrder(t *testing.T) {
	names := Names()
	if names[0] != "CA" || names[len(names)-1] != "U5" {
		t.Fatalf("unexpected order: %v", names)
	}
}
