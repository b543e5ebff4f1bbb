package experiments

import (
	"bytes"
	"testing"
)

func TestAblationShapes(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.06, Seed: 5, T: 8, Out: &buf}
	rows := Ablation(opt, "PR")
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.RelativeSize <= 0 {
			t.Fatalf("%s: non-positive relative size", r.Config)
		}
		byName[r.Config] = r.RelativeSize
	}
	full := byName["full (paper defaults)"]
	// Each ablated configuration must not beat the full algorithm by a
	// meaningful margin (randomness tolerance 2%).
	for name, rel := range byName {
		if rel < full*0.98 {
			t.Fatalf("%s (%.3f) substantially beats full (%.3f)", name, rel, full)
		}
	}
	// Disabling pruning must hurt on PR (the paper's Table IV shows the
	// largest pruning effect there).
	if byName["no pruning"] <= full {
		t.Fatalf("no-pruning (%.3f) should be worse than full (%.3f)",
			byName["no pruning"], full)
	}
}

func TestAblationUnknownDatasetFallsBack(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.05, Seed: 5, T: 3, Out: &buf}
	if rows := Ablation(opt, "nope"); len(rows) != 5 {
		t.Fatalf("fallback failed: %d rows", len(rows))
	}
}
