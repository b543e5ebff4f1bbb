// Package datasets provides synthetic analogues of the 16 real-world
// graphs used in the SLUGGER paper (Table II). The paper's datasets
// range from 53 K to 783 M edges and are not redistributable here, so
// each analogue is generated to match the *structural family* of its
// namesake (internet topology, social, protein interaction, e-mail,
// collaboration, co-purchase, hyperlink) at laptop scale. A scale
// factor grows or shrinks every instance proportionally.
//
// The substitution is documented in DESIGN.md §1: the paper's
// experiments measure relative compression and qualitative shapes,
// which depend on community/hierarchical structure and degree skew —
// properties the generators plant explicitly — not on dataset identity.
package datasets

import (
	"fmt"

	"repro/internal/graph"
)

// Spec describes one named dataset analogue.
type Spec struct {
	Name    string // paper's two-letter label (CA, FA, PR, ...)
	Long    string // paper's dataset name
	Summary string // domain, as in Table II
	Large   bool   // marked with an asterisk in Fig. 5 (hundreds of millions of edges)
	gen     func(scale float64, seed int64) *graph.Graph
}

// Generate builds the analogue at the given scale (1.0 = default size).
func (s Spec) Generate(scale float64, seed int64) *graph.Graph {
	if scale <= 0 {
		scale = 1
	}
	return s.gen(scale, seed)
}

func scaled(base int, scale float64) int {
	v := int(float64(base) * scale)
	if v < 2 {
		v = 2
	}
	return v
}

// hier builds a hierarchical community graph whose size scales by
// adjusting the leaf community size.
func hier(levels, branching, leafSize int, density []float64) func(float64, int64) *graph.Graph {
	return func(scale float64, seed int64) *graph.Graph {
		p := graph.HierParams{
			Levels:    levels,
			Branching: branching,
			LeafSize:  scaled(leafSize, scale),
			Density:   density,
		}
		return graph.HierCommunity(p, seed)
	}
}

// All returns the 16 dataset analogues in the paper's Table II order.
func All() []Spec {
	return []Spec{
		{Name: "CA", Long: "Caida", Summary: "Internet",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BarabasiAlbert(scaled(2600, s), 2, seed)
			}},
		{Name: "FA", Long: "Ego-Facebook", Summary: "Social",
			gen: hier(2, 6, 12, []float64{0.004, 0.12, 0.7})},
		{Name: "PR", Long: "Protein", Summary: "Protein Interaction",
			// Dense overlapping modules: the paper's best case for SLUGGER.
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(28, s), 12, 16, scaled(400, s), seed)
			}},
		{Name: "EM", Long: "Email-Enron", Summary: "Email",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BarabasiAlbert(scaled(3600, s), 3, seed)
			}},
		{Name: "DB", Long: "DBLP", Summary: "Collaboration",
			gen: hier(3, 5, 6, []float64{0.0008, 0.01, 0.2, 0.9})},
		{Name: "AM", Long: "Amazon0601", Summary: "Co-purchase",
			gen: hier(3, 5, 5, []float64{0.001, 0.02, 0.25, 0.8})},
		{Name: "CN", Long: "CNR-2000", Summary: "Hyperlinks",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(60, s), 10, 14, scaled(900, s), seed)
			}},
		{Name: "YO", Long: "Youtube", Summary: "Social",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BarabasiAlbert(scaled(4500, s), 2, seed)
			}},
		{Name: "SK", Long: "Skitter", Summary: "Internet",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.RMAT(sizeToScale(scaled(4000, s)), 6, 0.57, 0.19, 0.19, seed)
			}},
		{Name: "EU", Long: "EU-05", Summary: "Hyperlinks", Large: false,
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(70, s), 14, 18, scaled(1200, s), seed)
			}},
		{Name: "ES", Long: "Eswiki-13", Summary: "Social",
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.RMAT(sizeToScale(scaled(5000, s)), 8, 0.55, 0.2, 0.2, seed)
			}},
		{Name: "LJ", Long: "LiveJournal", Summary: "Social",
			gen: hier(3, 6, 5, []float64{0.0005, 0.008, 0.15, 0.7})},
		{Name: "HO", Long: "Hollywood", Summary: "Collaboration", Large: true,
			// Collaboration cliques (movie casts) overlapping via bridges.
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.Caveman(scaled(180, s), 14, scaled(1500, s), seed)
			}},
		{Name: "IC", Long: "IC-04", Summary: "Hyperlinks", Large: true,
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(110, s), 16, 20, scaled(1600, s), seed)
			}},
		{Name: "U2", Long: "UK-02", Summary: "Hyperlinks", Large: true,
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(140, s), 15, 18, scaled(2600, s), seed)
			}},
		{Name: "U5", Long: "UK-05", Summary: "Hyperlinks", Large: true,
			gen: func(s float64, seed int64) *graph.Graph {
				return graph.BipartiteCores(scaled(170, s), 16, 20, scaled(3200, s), seed)
			}},
	}
}

// sizeToScale returns the R-MAT scale exponent for approximately n nodes.
func sizeToScale(n int) int {
	s := 1
	for (1 << s) < n {
		s++
	}
	return s
}

// ByName returns the spec with the given short name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names returns all short names in Table II order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
