package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns options small enough for unit testing.
func tiny() Options {
	var buf bytes.Buffer
	return Options{Scale: 0.04, Seed: 5, Trials: 1, T: 3, Out: &buf}
}

func TestFig5aProducesAllDatasetsAndAlgorithms(t *testing.T) {
	var buf bytes.Buffer
	opt := tiny()
	opt.Out = &buf
	res := Fig5a(opt)
	if len(res) != 16 {
		t.Fatalf("datasets = %d, want 16", len(res))
	}
	for ds, row := range res {
		if len(row) != 5 {
			t.Fatalf("%s: algorithms = %d, want 5", ds, len(row))
		}
		for alg, r := range row {
			if r.RelativeSize < 0 {
				t.Fatalf("%s/%s: negative relative size", ds, alg)
			}
			if r.Cost <= 0 && r.Edges > 0 {
				t.Fatalf("%s/%s: zero cost on nonempty graph", ds, alg)
			}
		}
	}
	if !strings.Contains(buf.String(), "Fig 5(a)") {
		t.Fatal("header missing from output")
	}
}

func TestFig1bLinearShape(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.05, Seed: 5, T: 2, Out: &buf}
	pts := Fig1b(opt)
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	// Edge counts must be increasing with the sample fraction.
	for i := 1; i < len(pts); i++ {
		if pts[i].Edges < pts[i-1].Edges {
			t.Fatalf("edges not increasing: %v", pts)
		}
	}
	if r2 := LinearFitR2(pts); r2 < 0 || r2 > 1 {
		t.Fatalf("R^2 = %f out of range", r2)
	}
}

func TestTable3MonotoneOnPR(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.05, Seed: 5, Out: &buf}
	res := Table3(opt, []string{"PR"})
	row := res["PR"]
	if len(row) != 6 {
		t.Fatalf("T sweep has %d entries", len(row))
	}
	// Table III shape: relative size decreases (weakly) from T=1 to T=80.
	if row[len(row)-1] > row[0] {
		t.Fatalf("T=80 (%f) worse than T=1 (%f)", row[len(row)-1], row[0])
	}
}

func TestTable4SubstepsNonIncreasing(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.06, Seed: 5, T: 5, Out: &buf}
	res := Table4(opt, []string{"PR", "FA"})
	for ds, rows := range res {
		for i := 1; i < len(rows); i++ {
			if rows[i].RelativeSize > rows[i-1].RelativeSize+1e-12 {
				t.Fatalf("%s: substep %d increased size %f -> %f",
					ds, i, rows[i-1].RelativeSize, rows[i].RelativeSize)
			}
		}
		if rows[0].MaxHeight < rows[3].MaxHeight {
			t.Fatalf("%s: pruning increased max height", ds)
		}
	}
}

func TestTable5HbSweep(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.05, Seed: 5, T: 5, Out: &buf}
	res := Table5(opt, []string{"PR"})
	rows := res["PR"]
	if len(rows) != 5 {
		t.Fatalf("Hb sweep has %d entries", len(rows))
	}
	// Table V shape: the unbounded run compresses at least as well as Hb=2.
	if rows[len(rows)-1].RelativeSize > rows[0].RelativeSize+1e-12 {
		t.Fatalf("unbounded (%f) worse than Hb=2 (%f)",
			rows[len(rows)-1].RelativeSize, rows[0].RelativeSize)
	}
}

func TestFig6SharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.03, Seed: 5, T: 2, Out: &buf}
	res := Fig6(opt)
	for ds, c := range res {
		sum := c.PShare + c.NShare + c.HShare
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: shares sum to %f", ds, sum)
		}
	}
}

func TestDecompressionReportsQueries(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Scale: 0.05, Seed: 5, T: 3, Out: &buf}
	res := Decompression(opt, []string{"FA", "PR"})
	if len(res) != 2 {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		if r.AvgQuery <= 0 {
			t.Fatalf("%s: non-positive query time", r.Dataset)
		}
	}
}

func TestAlgorithmsOnSummaryAgree(t *testing.T) {
	// The second row is the command line's defaults at -scale 0.05.
	for _, opt := range []Options{
		{Scale: 0.05, Seed: 5, T: 3},
		{Scale: 0.05, Seed: 0, T: 20},
	} {
		var buf bytes.Buffer
		opt.Out = &buf
		res := AlgorithmsOnSummary(opt, "FA")
		if len(res) != 4 {
			t.Fatalf("seed %d T %d: algorithms = %d, want 4", opt.Seed, opt.T, len(res))
		}
		for _, r := range res {
			if !r.Agrees {
				t.Errorf("seed %d T %d: %s disagrees between raw and summary", opt.Seed, opt.T, r.Algorithm)
			}
		}
	}
}

func TestTheorem1Separation(t *testing.T) {
	var buf bytes.Buffer
	opt := Options{Seed: 5, T: 10, Out: &buf}
	res := Theorem1(opt, 12, 2)
	if res.HierarchicalCost <= 0 || res.FlatCost <= 0 {
		t.Fatal("costs must be positive")
	}
	// The hierarchical encoding must beat the flat one on the Fig. 3
	// construction (the whole point of Theorem 1).
	if res.HierarchicalCost >= res.FlatCost {
		t.Fatalf("hierarchical %d not better than flat %d",
			res.HierarchicalCost, res.FlatCost)
	}
}

func TestLinearFitR2PerfectLine(t *testing.T) {
	pts := []ScalePoint{{100, 100}, {200, 200}, {300, 300}}
	if r2 := LinearFitR2(pts); r2 < 0.999 {
		t.Fatalf("R^2 = %f on a perfect line", r2)
	}
	if r2 := LinearFitR2(pts[:1]); r2 != 1 {
		t.Fatalf("degenerate fit = %f", r2)
	}
}

func TestNamesStable(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("experiments = %d, want 12", len(names))
	}
}
