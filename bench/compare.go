package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// -compare A B: the tool for "did this change regress anything". Each
// file is a set of runs (-out appends one line per run). For every
// workload × metric both sides report, it prints the two medians and
// quartiles and one verdict, using the bound the registry fixes:
//
//	within      B's median is no worse than A's by more than the bound
//	improved    B's median is better than A's by more than the bound
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  either side's quartile spread is wider than the bound,
//	            or fewer than minCalmRuns of its runs were calm: the
//	            data cannot tell
//	info        a per-layer metric: no bound, medians only
//
// Exit status 0 iff nothing regressed.

type verdict string

const (
	vWithin     verdict = "within"
	vImproved   verdict = "improved"
	vRegressed  verdict = "regressed"
	vUnresolved verdict = "unresolved"
	vInfo       verdict = "info"
)

// minCalmRuns is how many runs the noise guard must have passed for a
// side's median to be judged. Runs it labelled noisy are left out of
// the end-to-end series; per-layer series keep every run.
const minCalmRuns = 5

type sideStats struct {
	n           int
	med, q1, q3 float64
}

func summarize(vals []float64) sideStats {
	s := sideStats{n: len(vals), med: medianFloat(vals)}
	s.q1, s.q3 = s.med, s.med
	if len(vals) >= 2 {
		s.q1, s.q3 = quartiles(vals)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s sideStats) spread() float64 {
	if s.med == 0 {
		return s.q3 - s.q1
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// judge classifies B against A for one metric.
func judge(d *metricDef, a, b sideStats) verdict {
	if d.kind == kindLayer || d.info {
		return vInfo
	}
	// worse > 0 means B is worse than A, as a share of A's median.
	worse := b.med - a.med
	if d.better == "higher" {
		worse = -worse
	}
	if a.med != 0 {
		worse /= math.Abs(a.med)
	}
	if min(a.n, b.n) < minCalmRuns || a.spread() > d.bound || b.spread() > d.bound {
		return vUnresolved
	}
	switch {
	case worse > d.bound:
		return vRegressed
	case worse < -d.bound:
		return vImproved
	}
	return vWithin
}

type seriesKey struct{ workload, metric string }

// collect groups a file's runs into one value series per workload ×
// metric, leaving out end-to-end runs the noise guard labelled noisy.
func collect(recs []record) (series map[seriesKey][]float64, dropped int) {
	series = map[seriesKey][]float64{}
	for _, r := range recs {
		if !r.Correct {
			continue
		}
		if r.Noisy && !r.Trace {
			dropped++
			continue
		}
		for name, v := range r.Metrics {
			k := seriesKey{r.Workload, name}
			series[k] = append(series[k], v.Value)
		}
	}
	return series, dropped
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	recsA, errA := readRecords(pathA)
	recsB, errB := readRecords(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare:", errA, errB)
		return 2
	}
	a, droppedA := collect(recsA)
	b, droppedB := collect(recsB)
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-11s %-28s %-10s %5s  %-38s %-38s %8s %6s  %s\n",
		"workload", "metric", "unit", "runs", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound", "verdict")
	for _, wd := range workloadDefs {
		for i := range metricDefs {
			d := &metricDefs[i]
			k := seriesKey{wd.name, d.name}
			va, vb := a[k], b[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			v := judge(d, sa, sb)
			counts[v]++
			change := 0.0
			if sa.med != 0 {
				change = (sb.med - sa.med) / math.Abs(sa.med)
			}
			bound := "-"
			if d.kind != kindLayer && !d.info {
				bound = fmt.Sprintf("%.2f", d.bound)
			}
			fmt.Fprintf(w, "%-11s %-28s %-10s %2d/%-2d  %-38s %-38s %+7.1f%% %6s  %s\n",
				wd.name, d.name, d.unit, sa.n, sb.n, fmtSide(sa), fmtSide(sb), 100*change, bound, v)
		}
	}
	fmt.Fprintf(w, "\nwithin %d, improved %d, regressed %d, unresolved %d (per-layer, no bound: %d)\n",
		counts[vWithin], counts[vImproved], counts[vRegressed], counts[vUnresolved], counts[vInfo])
	if droppedA+droppedB > 0 {
		fmt.Fprintf(w, "left out as noisy: %d runs of A, %d runs of B\n", droppedA, droppedB)
	}
	if counts[vRegressed] > 0 {
		return 1
	}
	return 0
}

func fmtSide(s sideStats) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.med, s.q1, s.q3)
}
