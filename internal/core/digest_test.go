package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/graph"
)

// TestArtifactDigestsPinned pins the serialized summary of a few fixed
// (graph, config) rows, at a serial and a parallel worker count. It is
// the guard for refactors of the merge kernel: a change that claims to
// keep the output identical must keep every digest here.
//
// Re-pinned once, by PR 20, on purpose: the per-group generator became a
// PCG seeded with two words (groupRNG), so every candidate group draws a
// different stream and every summary differs, by seed-to-seed noise in
// size (CHANGES.md has the relative_size table). The same PR's move of
// the root adjacency from maps to sorted lists did not move a digest.
func TestArtifactDigestsPinned(t *testing.T) {
	rows := []struct {
		name  string
		large bool
		g     func() *graph.Graph
		cfg   Config
		want  string
	}{
		{
			name:  "hier3x5x12",
			large: true,
			g: func() *graph.Graph {
				return graph.HierCommunity(graph.HierParams{
					Levels: 3, Branching: 5, LeafSize: 12,
					Density: []float64{0.0008, 0.01, 0.2, 0.9},
				}, 64)
			},
			cfg:  Config{T: 20, Seed: 1},
			want: "3ed37565b94fc12cb5c53ab2cbbc12aeb77b948011fcf5b042dea23e7becb588",
		},
		{
			name:  "ba5000x3",
			large: true,
			g:     func() *graph.Graph { return graph.BarabasiAlbert(5000, 3, 64) },
			cfg:   Config{T: 20, Seed: 1},
			want:  "010f636414fd224f283f86bbc375f7990714e3b3ddf94fd65181eb59bd911f24",
		},
		{
			name: "er120x400",
			g:    func() *graph.Graph { return graph.ErdosRenyi(120, 400, 7) },
			cfg:  Config{T: 6, Seed: 11},
			want: "ef0cd35c609b538745904c157b08312e60983d11bb14ccfa1a1e20643635b582",
		},
		{
			name: "caveman8x10-hb3",
			g:    func() *graph.Graph { return graph.Caveman(8, 10, 6, 9) },
			cfg:  Config{T: 8, Seed: 13, Hb: 3},
			want: "28d6f0b6829cb983fdcb0d134ff759ad526c4fea03585cf8b27d766a8e613241",
		},
	}
	for _, row := range rows {
		if row.large && testing.Short() {
			continue
		}
		g := row.g()
		for _, workers := range []int{1, 3} {
			cfg := row.cfg
			cfg.Workers = workers
			sum, _ := Summarize(g, cfg)
			h := sha256.New()
			if _, err := sum.WriteTo(h); err != nil {
				t.Fatalf("%s workers %d: %v", row.name, workers, err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != row.want {
				t.Errorf("%s workers %d: artifact sha256 %s, want %s", row.name, workers, got, row.want)
			}
		}
	}
}
