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
			want: "e9394584fdeccd5c744811e92d8d1f3e16112d8dc25d11877bdf11c9c32fa3b6",
		},
		{
			name:  "ba5000x3",
			large: true,
			g:     func() *graph.Graph { return graph.BarabasiAlbert(5000, 3, 64) },
			cfg:   Config{T: 20, Seed: 1},
			want:  "18a316bdd544aaee1faa4a909e722ba786fcbdadde5c0436efd32f2da000d570",
		},
		{
			name: "er120x400",
			g:    func() *graph.Graph { return graph.ErdosRenyi(120, 400, 7) },
			cfg:  Config{T: 6, Seed: 11},
			want: "42438cf5c8ae2d70113006b96315901d7b1e04f705d03f2e725a2b0491ba7768",
		},
		{
			name: "caveman8x10-hb3",
			g:    func() *graph.Graph { return graph.Caveman(8, 10, 6, 9) },
			cfg:  Config{T: 8, Seed: 13, Hb: 3},
			want: "2b367a94e3e34948903b96ee46e4d6691c86ade8823f81d6b5536b426fce2ce0",
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
