// Package experiments regenerates every table and figure of the SLUGGER
// paper's evaluation section (Sect. IV and the appendix) on the
// synthetic dataset analogues. Each driver prints the same rows/series
// the paper reports; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/flat"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/pkg/slug"
)

// Options configures a run of the experiment suite.
type Options struct {
	Scale   float64 // dataset scale factor (1.0 = default analogue size)
	Seed    int64
	Trials  int // runs averaged per measurement (paper: 5)
	T       int // SLUGGER/SWeG iterations (paper: 20)
	Workers int // SLUGGER candidate-group pipeline workers (0/1 = serial)
	// Algos restricts the compared algorithms to these canonical
	// pkg/slug names (nil = all five, in the paper's order).
	Algos []string
	Out   io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.T <= 0 {
		o.T = 20
	}
	return o
}

// paperOrder lists the canonical pkg/slug algorithm names in the order
// the paper's tables present them, with the display names used in
// printed rows.
var paperOrder = []struct{ canonical, display string }{
	{"slugger", "Slugger"},
	{"sweg", "SWeG"},
	{"mosso", "MoSSo"},
	{"randomized", "Randomized"},
	{"sags", "SAGS"},
}

// algorithms returns the compared summarizers (paper Sect. IV-A) in
// paper order: all five, or those named in o.Algos. Each is a pkg/slug
// registry entry driven through slug.Summarizer; o.Workers sets
// SLUGGER's candidate-group pipeline width (the baselines ignore the
// options that do not apply to them). Unknown names are skipped.
func (o Options) algorithms() []algorithm {
	var algs []algorithm
	opts := []slug.Option{slug.WithIterations(o.T), slug.WithWorkers(o.Workers)}
	for _, a := range paperOrder {
		if len(o.Algos) > 0 && !slices.Contains(o.Algos, a.canonical) {
			continue
		}
		if s, ok := slug.Lookup(a.canonical); ok {
			algs = append(algs, algorithm{Summarizer: s, display: a.display, opts: opts})
		}
	}
	return algs
}

// Fig5a reproduces Fig. 1(a)/Fig. 5(a): the relative size of outputs of
// the five algorithms on every dataset. Returns results keyed by
// dataset then algorithm.
func Fig5a(opt Options) map[string]map[string]Result {
	opt = opt.withDefaults()
	algs := opt.algorithms()
	out := make(map[string]map[string]Result)
	fmt.Fprintf(opt.Out, "=== Fig 5(a): relative size of outputs (scale=%.2f, trials=%d) ===\n", opt.Scale, opt.Trials)
	fmt.Fprintf(opt.Out, "%-4s %10s", "data", "|E|")
	for _, alg := range algs {
		fmt.Fprintf(opt.Out, " %11s", alg.display)
	}
	fmt.Fprintln(opt.Out)
	for _, spec := range datasets.All() {
		g := spec.Generate(opt.Scale, opt.Seed)
		row := make(map[string]Result)
		fmt.Fprintf(opt.Out, "%-4s %10d", spec.Name, g.NumEdges())
		for _, alg := range algs {
			r := measureAvg(alg, spec.Name, g, opt.Seed, opt.Trials)
			row[alg.display] = r
			fmt.Fprintf(opt.Out, " %11.3f", r.RelativeSize)
		}
		fmt.Fprintln(opt.Out)
		out[spec.Name] = row
	}
	return out
}

// Fig5b reproduces Fig. 5(b): running time of the five algorithms, with
// SLUGGER's speedups over SWeG and SAGS.
func Fig5b(opt Options) map[string]map[string]Result {
	opt = opt.withDefaults()
	algs := opt.algorithms()
	out := make(map[string]map[string]Result)
	fmt.Fprintf(opt.Out, "=== Fig 5(b): running time (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s", "data")
	for _, alg := range algs {
		fmt.Fprintf(opt.Out, " %12s", alg.display)
	}
	fmt.Fprintf(opt.Out, " %10s %10s\n", "vs SWeG", "vs SAGS")
	for _, spec := range datasets.All() {
		g := spec.Generate(opt.Scale, opt.Seed)
		row := make(map[string]Result)
		fmt.Fprintf(opt.Out, "%-4s", spec.Name)
		for _, alg := range algs {
			r := measureAvg(alg, spec.Name, g, opt.Seed, opt.Trials)
			row[alg.display] = r
			fmt.Fprintf(opt.Out, " %12s", r.Elapsed.Round(time.Millisecond))
		}
		spd := func(other string) string {
			// Either participant may be filtered out via Options.Algos;
			// don't fake a measured 0.00x then.
			me, okMe := row["Slugger"]
			them, okThem := row[other]
			if !okMe || !okThem || me.Elapsed == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.2fx", float64(them.Elapsed)/float64(me.Elapsed))
		}
		fmt.Fprintf(opt.Out, " %10s %10s\n", spd("SWeG"), spd("SAGS"))
		out[spec.Name] = row
	}
	return out
}

// ScalePoint is one measurement of the Fig. 1(b) scalability series.
type ScalePoint struct {
	Edges   int64
	Elapsed time.Duration
}

// Fig1b reproduces Fig. 1(b): SLUGGER's runtime on node-sampled
// subgraphs of the largest dataset (U5 analogue) at growing sizes,
// checking linear scaling.
func Fig1b(opt Options) []ScalePoint {
	opt = opt.withDefaults()
	spec, _ := datasets.ByName("U5")
	full := spec.Generate(opt.Scale, opt.Seed)
	fracs := []float64{0.125, 0.25, 0.5, 0.7, 0.85, 1.0}
	fmt.Fprintf(opt.Out, "=== Fig 1(b): scalability on U5 subgraphs (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%10s %10s %14s %14s\n", "frac", "|E|", "time", "time/|E| (us)")
	var pts []ScalePoint
	for _, f := range fracs {
		g := graph.NodeSample(full, f, opt.Seed+7)
		start := time.Now()
		core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Workers: opt.Workers})
		el := time.Since(start)
		pts = append(pts, ScalePoint{Edges: g.NumEdges(), Elapsed: el})
		perEdge := 0.0
		if g.NumEdges() > 0 {
			perEdge = float64(el.Microseconds()) / float64(g.NumEdges())
		}
		fmt.Fprintf(opt.Out, "%10.3f %10d %14s %14.2f\n", f, g.NumEdges(), el.Round(time.Millisecond), perEdge)
	}
	return pts
}

// Table3 reproduces Table III: the relative size of SLUGGER's outputs
// as T varies over {1, 5, 10, 20, 40, 80}.
func Table3(opt Options, names []string) map[string][]float64 {
	opt = opt.withDefaults()
	ts := []int{1, 5, 10, 20, 40, 80}
	if names == nil {
		names = datasets.Names()
	}
	out := make(map[string][]float64)
	fmt.Fprintf(opt.Out, "=== Table III: effect of the iteration number T (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s", "data")
	for _, t := range ts {
		fmt.Fprintf(opt.Out, " %8s", fmt.Sprintf("T=%d", t))
	}
	fmt.Fprintln(opt.Out)
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			continue
		}
		g := spec.Generate(opt.Scale, opt.Seed)
		fmt.Fprintf(opt.Out, "%-4s", name)
		var row []float64
		for _, t := range ts {
			s, _ := core.Summarize(g, core.Config{T: t, Seed: opt.Seed, Workers: opt.Workers})
			rel := s.RelativeSize(g.NumEdges())
			row = append(row, rel)
			fmt.Fprintf(opt.Out, " %8.3f", rel)
		}
		fmt.Fprintln(opt.Out)
		out[name] = row
	}
	return out
}

// Table4Row holds the Table IV metrics after one pruning substep.
type Table4Row struct {
	RelativeSize float64
	MaxHeight    int
	AvgLeafDepth float64
}

// Table4 reproduces Table IV: relative size, maximum hierarchy height
// and average leaf depth after each pruning substep 0..3.
func Table4(opt Options, names []string) map[string][4]Table4Row {
	opt = opt.withDefaults()
	if names == nil {
		names = datasets.Names()
	}
	out := make(map[string][4]Table4Row)
	fmt.Fprintf(opt.Out, "=== Table IV: effect of pruning substeps (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s | %27s | %23s | %27s\n", "data",
		"relative size (0..3)", "max height (0..3)", "avg leaf depth (0..3)")
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			continue
		}
		g := spec.Generate(opt.Scale, opt.Seed)
		var rows [4]Table4Row
		core.Summarize(g, core.Config{
			T:    opt.T,
			Seed: opt.Seed,
			OnPruneSubstep: func(round, substep int, snap core.PruneSnapshot) {
				if round != 1 {
					return
				}
				rows[substep] = Table4Row{
					RelativeSize: float64(snap.Cost) / float64(g.NumEdges()),
					MaxHeight:    snap.MaxHeight,
					AvgLeafDepth: snap.AvgLeafDepth,
				}
			},
		})
		fmt.Fprintf(opt.Out, "%-4s |", name)
		for _, r := range rows {
			fmt.Fprintf(opt.Out, " %6.3f", r.RelativeSize)
		}
		fmt.Fprintf(opt.Out, " |")
		for _, r := range rows {
			fmt.Fprintf(opt.Out, " %5d", r.MaxHeight)
		}
		fmt.Fprintf(opt.Out, " |")
		for _, r := range rows {
			fmt.Fprintf(opt.Out, " %6.2f", r.AvgLeafDepth)
		}
		fmt.Fprintln(opt.Out)
		out[name] = rows
	}
	return out
}

// Table5Row holds the Table V metrics for one height bound.
type Table5Row struct {
	Hb           int // 0 = unbounded
	AvgLeafDepth float64
	RelativeSize float64
}

// Table5 reproduces Table V: the effect of the height bound Hb on the
// average leaf depth and the relative size.
func Table5(opt Options, names []string) map[string][]Table5Row {
	opt = opt.withDefaults()
	hbs := []int{2, 5, 7, 10, 0}
	if names == nil {
		names = datasets.Names()
	}
	out := make(map[string][]Table5Row)
	fmt.Fprintf(opt.Out, "=== Table V: effect of the height bound Hb (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s | %40s | %40s\n", "data", "avg leaf depth (Hb=2,5,7,10,inf)", "relative size (Hb=2,5,7,10,inf)")
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			continue
		}
		g := spec.Generate(opt.Scale, opt.Seed)
		var rows []Table5Row
		for _, hb := range hbs {
			s, _ := core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Hb: hb, Workers: opt.Workers})
			rows = append(rows, Table5Row{
				Hb:           hb,
				AvgLeafDepth: s.AvgLeafDepth(),
				RelativeSize: s.RelativeSize(g.NumEdges()),
			})
		}
		fmt.Fprintf(opt.Out, "%-4s |", name)
		for _, r := range rows {
			fmt.Fprintf(opt.Out, " %7.2f", r.AvgLeafDepth)
		}
		fmt.Fprintf(opt.Out, " |")
		for _, r := range rows {
			fmt.Fprintf(opt.Out, " %7.3f", r.RelativeSize)
		}
		fmt.Fprintln(opt.Out)
		out[name] = rows
	}
	return out
}

// Fig6 reproduces Fig. 6: the proportion of p-, n- and h-edges in
// SLUGGER's outputs per dataset.
func Fig6(opt Options) map[string]model.Composition {
	opt = opt.withDefaults()
	out := make(map[string]model.Composition)
	fmt.Fprintf(opt.Out, "=== Fig 6: composition of outputs (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s %10s %10s %10s\n", "data", "p-edges", "n-edges", "h-edges")
	for _, spec := range datasets.All() {
		g := spec.Generate(opt.Scale, opt.Seed)
		s, _ := core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Workers: opt.Workers})
		c := s.Composition()
		out[spec.Name] = c
		fmt.Fprintf(opt.Out, "%-4s %10.3f %10.3f %10.3f\n", spec.Name, c.PShare, c.NShare, c.HShare)
	}
	return out
}

// DecompResult is one row of the Sect. VIII-B partial-decompression
// experiment.
type DecompResult struct {
	Dataset      string
	AvgQuery     time.Duration
	AvgLeafDepth float64
}

// Decompression reproduces the Sect. VIII-B measurement: the average
// time to retrieve a vertex's neighbors from the summary by partial
// decompression (Algorithm 4, as the compiled engine implements it),
// reported next to the average leaf depth the paper correlates it with.
func Decompression(opt Options, names []string) []DecompResult {
	opt = opt.withDefaults()
	if names == nil {
		names = datasets.Names()
	}
	var out []DecompResult
	fmt.Fprintf(opt.Out, "=== Sect VIII-B: neighbor-query time on summaries (scale=%.2f) ===\n", opt.Scale)
	fmt.Fprintf(opt.Out, "%-4s %14s %14s\n", "data", "avg query", "avg leaf depth")
	for _, name := range names {
		spec, err := datasets.ByName(name)
		if err != nil {
			continue
		}
		g := spec.Generate(opt.Scale, opt.Seed)
		s, _ := core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Workers: opt.Workers})
		// Timed on the compiled engine, the form every query in this
		// repository is served from (compiling is build-side work and
		// stays outside the timed loop).
		cs := s.Compile()
		queries := min(int32(s.N), 20000)
		q := cs.AcquireCtx()
		start := time.Now()
		for v := int32(0); v < queries; v++ {
			q.NeighborsOf(v)
		}
		avg := time.Since(start) / time.Duration(queries)
		cs.ReleaseCtx(q)
		out = append(out, DecompResult{Dataset: name, AvgQuery: avg, AvgLeafDepth: s.AvgLeafDepth()})
		fmt.Fprintf(opt.Out, "%-4s %14s %14.2f\n", name, avg, s.AvgLeafDepth())
	}
	return out
}

// AlgoResult is one row of the Sect. VIII-C algorithms experiment.
type AlgoResult struct {
	Algorithm string
	OnRaw     time.Duration
	OnSummary time.Duration
	Agrees    bool
}

// AlgorithmsOnSummary reproduces Sect. VIII-C: BFS, PageRank,
// Dijkstra's and triangle counting executed on the raw graph and on the
// SLUGGER summary via partial decompression, with agreement checks.
func AlgorithmsOnSummary(opt Options, dataset string) []AlgoResult {
	opt = opt.withDefaults()
	spec, err := datasets.ByName(dataset)
	if err != nil {
		spec, _ = datasets.ByName("FA")
	}
	g := spec.Generate(opt.Scale, opt.Seed)
	s, _ := core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Workers: opt.Workers})
	osum := algos.OnCompiled(s.Compile())
	defer osum.Release()
	raw := algos.Raw(g)

	var out []AlgoResult
	run := func(name string, f func(src algos.NeighborSource) interface{}, eq func(a, b interface{}) bool) {
		start := time.Now()
		ra := f(raw)
		tRaw := time.Since(start)
		start = time.Now()
		rb := f(osum)
		tSum := time.Since(start)
		out = append(out, AlgoResult{Algorithm: name, OnRaw: tRaw, OnSummary: tSum, Agrees: eq(ra, rb)})
	}
	run("BFS", func(src algos.NeighborSource) interface{} { return len(algos.BFS(src, 0)) },
		func(a, b interface{}) bool { return a == b })
	run("PageRank", func(src algos.NeighborSource) interface{} { return algos.PageRank(src, 0.85, 10) },
		func(a, b interface{}) bool {
			x, y := a.([]float64), b.([]float64)
			for i := range x {
				d := x[i] - y[i]
				if d > 1e-9 || d < -1e-9 {
					return false
				}
			}
			return true
		})
	run("Dijkstra", func(src algos.NeighborSource) interface{} {
		d := algos.Dijkstra(src, 0)
		var sum int64
		for _, x := range d {
			sum += x
		}
		return sum
	}, func(a, b interface{}) bool { return a == b })
	run("Triangles", func(src algos.NeighborSource) interface{} { return algos.CountTriangles(src) },
		func(a, b interface{}) bool { return a == b })

	fmt.Fprintf(opt.Out, "=== Sect VIII-C: graph algorithms on the %s summary (scale=%.2f) ===\n", spec.Name, opt.Scale)
	fmt.Fprintf(opt.Out, "%-10s %12s %12s %8s\n", "algorithm", "raw", "summary", "agree")
	for _, r := range out {
		fmt.Fprintf(opt.Out, "%-10s %12s %12s %8v\n", r.Algorithm,
			r.OnRaw.Round(time.Microsecond), r.OnSummary.Round(time.Microsecond), r.Agrees)
	}
	return out
}

// Theorem1Result compares hierarchical and flat encoding costs on the
// Fig. 3 construction.
type Theorem1Result struct {
	N, K             int
	Edges            int64
	HierarchicalCost int64
	FlatCost         int64
}

// Theorem1 demonstrates the conciseness separation of Theorem 1: on the
// complement-of-cliques construction, the hierarchical model (via
// SLUGGER) stays near Θ(nk) while the best flat partition (grouping
// each non-edge clique) pays Ω(n^2)-ish superedge costs.
func Theorem1(opt Options, n, k int) Theorem1Result {
	opt = opt.withDefaults()
	g := graph.Theorem1Graph(n, k)
	s, _ := core.Summarize(g, core.Config{T: opt.T, Seed: opt.Seed, Workers: opt.Workers})
	// Best natural flat partition: one supernode per non-edge group.
	group := 2*k + 1
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = int32(v / group)
	}
	f := flat.Encode(g, assign)
	res := Theorem1Result{
		N: n, K: k,
		Edges:            g.NumEdges(),
		HierarchicalCost: s.Cost(),
		FlatCost:         f.Cost(),
	}
	fmt.Fprintf(opt.Out, "=== Theorem 1: hierarchical vs flat conciseness (n=%d, k=%d) ===\n", n, k)
	fmt.Fprintf(opt.Out, "|E|=%d  hierarchical cost=%d  flat cost=%d  ratio=%.2f\n",
		res.Edges, res.HierarchicalCost, res.FlatCost,
		float64(res.FlatCost)/float64(max(1, res.HierarchicalCost)))
	return res
}

// LinearFitR2 returns the R^2 of a least-squares linear fit
// time = a*edges + b over the scalability points — the Fig. 1(b)
// linearity check.
func LinearFitR2(pts []ScalePoint) float64 {
	if len(pts) < 2 {
		return 1
	}
	n := float64(len(pts))
	var sx, sy, sxx, sxy, syy float64
	for _, p := range pts {
		x := float64(p.Edges)
		y := float64(p.Elapsed)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	cov := sxy - sx*sy/n
	varX := sxx - sx*sx/n
	varY := syy - sy*sy/n
	if varX == 0 || varY == 0 {
		return 1
	}
	return cov * cov / (varX * varY)
}

// Names lists the available experiment ids for the CLI.
func Names() []string {
	names := []string{"fig5a", "fig5b", "fig1b", "table3", "table4", "table5", "fig6", "decomp", "algos", "theorem1", "ablation", "bytes"}
	sort.Strings(names)
	return names
}
