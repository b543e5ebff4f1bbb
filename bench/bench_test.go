package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricLine = regexp.MustCompile(`^metric (\S+) (\S+) (\S+) (\S+)$`)

// runBench runs the benchmark in-process and returns what it printed.
func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := realMain(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d\n%s", args, code, out.String())
	}
	return out.String()
}

// printed collects, per workload, how often each metric was printed and
// with which unit, and the workload's final JSON line.
type printed struct {
	count   map[string]map[string]int
	unit    map[string]map[string]string
	summary map[string]summaryLine
}

func parseOutput(t *testing.T, out string) printed {
	t.Helper()
	p := printed{count: map[string]map[string]int{}, unit: map[string]map[string]string{}, summary: map[string]summaryLine{}}
	workload := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# workload ") {
			workload = strings.Fields(line)[2]
			p.count[workload], p.unit[workload] = map[string]int{}, map[string]string{}
		}
		if m := metricLine.FindStringSubmatch(line); m != nil {
			p.count[m[1]][m[2]]++
			p.unit[m[1]][m[2]] = m[4]
		}
		if strings.HasPrefix(line, "{") {
			var s summaryLine
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("final line of %s is not JSON: %v\n%s", workload, err, line)
			}
			p.summary[workload] = s
		}
	}
	return p
}

// checkMetrics asserts that workload w printed exactly the metrics of
// the given kinds that apply to it, once each, with the registry's unit,
// and that its JSON line holds exactly the `contract` kind.
func checkMetrics(t *testing.T, p printed, w string, contract metricKind, kinds ...metricKind) {
	t.Helper()
	want := map[string]bool{}
	for i := range metricDefs {
		d := &metricDefs[i]
		for _, k := range kinds {
			if d.kind == k && d.appliesTo(w) {
				want[d.name] = true
			}
		}
	}
	for name := range want {
		if p.count[w][name] != 1 {
			t.Errorf("%s: metric %s printed %d times, want once", w, name, p.count[w][name])
		}
		if got := p.unit[w][name]; got != metricByName[name].unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", w, name, got, metricByName[name].unit)
		}
	}
	for name := range p.count[w] {
		if !want[name] {
			t.Errorf("%s: printed %s, which does not apply to it", w, name)
		}
	}
	s, ok := p.summary[w]
	if !ok {
		t.Fatalf("%s: no final JSON line", w)
	}
	if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
		t.Errorf("%s: final line says correct=%v attempted=%d failed=%d", w, s.Correct, s.Attempted, s.Failed)
	}
	for i := range metricDefs {
		d := &metricDefs[i]
		v, present := s.Metrics[d.name]
		if (d.kind == contract) != present {
			t.Errorf("%s: final line has %s = %v, want %v", w, d.name, present, d.kind == contract)
		}
		if present && (v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
			t.Errorf("%s: final line %s = %v %q", w, d.name, v.Value, v.Unit)
		}
		if present && d.kind == kindE2E && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, v.Value)
		}
	}
}

func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	start := time.Now()
	outFile := filepath.Join(t.TempDir(), "runs.jsonl")
	p := parseOutput(t, runBench(t, "-quick", "-out", outFile))
	t.Logf("-quick took %v", time.Since(start))
	for _, w := range workloadDefs {
		checkMetrics(t, p, w.name, kindE2E, kindE2E, kindClass)
	}
	recs, err := readRecords(outFile)
	if err != nil || len(recs) != len(workloadDefs) {
		t.Fatalf("-out wrote %d records (%v), want %d", len(recs), err, len(workloadDefs))
	}
	// A set compared with itself regresses nothing.
	var report bytes.Buffer
	if code := compareFiles(&report, outFile, outFile); code != 0 {
		t.Errorf("-compare of a file with itself exited %d\n%s", code, report.String())
	}
}

func TestQuickTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("walks two workloads through every layer")
	}
	for _, w := range []string{"build_skew", "serve_live"} {
		spanFile := filepath.Join(t.TempDir(), w+".json")
		p := parseOutput(t, runBench(t, "-quick", "-workload", w, "-trace", "1", "-trace-out", spanFile))
		checkMetrics(t, p, w, kindLayer, kindLayer)

		data, err := os.ReadFile(spanFile)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || tf.Workload != w || len(tf.Spans) == 0 {
			t.Fatalf("span file of %s: %v, workload %q, %d spans", w, err, tf.Workload, len(tf.Spans))
		}
		checkSelfTimes(t, tf.Spans)
	}
}

// checkSelfTimes asserts that under every root the self times add up to
// the root's duration within 1%, and that children lie inside parents.
func checkSelfTimes(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	root := make([]int, len(spans))
	total := map[int]time.Duration{}
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		root[i] = i
		if s.Parent >= 0 {
			if s.Parent >= i {
				t.Fatalf("span %d (%s) has parent %d, not an earlier span", i, s.Name, s.Parent)
			}
			if par := spans[s.Parent]; s.StartNs < par.StartNs || s.EndNs > par.EndNs {
				t.Errorf("span %d (%s) is not inside its parent %s", i, s.Name, par.Name)
			}
			root[i] = root[s.Parent]
		}
		if self[i] < 0 {
			t.Errorf("span %d (%s) has negative self time %v", i, s.Name, self[i])
		}
		total[root[i]] += self[i]
	}
	for r, sum := range total {
		if d := spans[r].dur(); math.Abs(float64(sum-d)) > 0.01*float64(d) {
			t.Errorf("self times under root %d (%s) sum to %v, root lasted %v", r, spans[r].Name, sum, d)
		}
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	lists := func(seed int64) string {
		e := &env{prof: &quickProfile, seed: seed, seconds: 0.2}
		g := e.servedGraph()
		n, _ := graphSize(g)
		read := clientList(e, n, 2000, serveReadMix)
		live, _ := serveLiveList(e, g, 2000)
		return opsDigest(read) + opsDigest(live)
	}
	a, again, b := lists(1), lists(1), lists(2)
	if a != again {
		t.Error("the same seed gave two different op lists")
	}
	if a == b {
		t.Error("seeds 1 and 2 gave the same op lists")
	}
}

func TestLiveListUpdatesAreEffective(t *testing.T) {
	e := &env{prof: &quickProfile, seed: 3, seconds: 0.2}
	g := e.servedGraph()
	ops, finalAdj := serveLiveList(e, g, 4000)
	n, m := graphSize(g)
	present := map[uint64]bool{}
	for _, ed := range graphEdges(g) {
		present[edgeKey(ed[0], ed[1])] = true
	}
	updates := 0
	for i := 0; i < ops.len(); i++ {
		o := ops.at(i)
		if o.kind != opUpdate {
			continue
		}
		updates++
		for _, u := range o.ups {
			k := edgeKey(u.u, u.v)
			if present[k] != u.del {
				t.Fatalf("update {%d,%d delete=%v} is a no-op", u.u, u.v, u.del)
			}
			present[k] = !u.del
		}
	}
	if updates == 0 {
		t.Fatal("no updates generated")
	}
	edges := 0
	for _, nbrs := range finalAdj {
		edges += len(nbrs)
	}
	if len(finalAdj) != n || int64(edges) != 2*m {
		t.Errorf("final graph has %d vertices and %d adjacency entries, want %d and %d (|E| stationary)", len(finalAdj), edges, n, 2*m)
	}
}

func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range metricDefs {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if d.kind == kindLayer && !strings.Contains(d.name, ".") {
			t.Errorf("per-layer metric %s does not name its layer", d.name)
		}
	}
	if len(metricByName) != len(metricDefs) {
		t.Error("a metric name is declared twice")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the registry and to the
// workload list, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: %q / %q differs from the definition", i, w.Name, w.Why)
		}
	}
	check := func(section string, got []entry, kind metricKind) {
		var want []*metricDef
		for i := range metricDefs {
			if metricDefs[i].kind == kind {
				want = append(want, &metricDefs[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, registry has %d", section, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, registry says %s %s %s", section, i, g, d.name, d.unit, d.better)
			}
			if kind == kindE2E && (g.Bound == nil || *g.Bound != d.bound || d.bound > 0.25) {
				t.Errorf("%s: bound of %s differs from the registry's %v", section, d.name, d.bound)
			}
			if kind == kindLayer && g.Bound != nil {
				t.Errorf("%s: per-layer metric %s has a bound", section, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, kindE2E)
	check("per_layer", doc.PerLayer, kindLayer)
}

// TestOnlyLayersImportsTheRepo keeps every call into the repository's
// layers in layers.go.
func TestOnlyLayersImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"repro/`) && f != "layers.go" {
				t.Errorf("%s imports %s; only layers.go may import the repository", f, imp.Path.Value)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1.0, 2.0], n=4) == [0.75, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{9: 0.5, 39: 0.5, 48: 0.75, 160: 0.90, 250: 0.95, 1000: 0.99, 360000: 0.99} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := &metricDef{name: "x_us", better: "lower", bound: 0.10, kind: kindE2E}
	higher := &metricDef{name: "x_per_s", better: "higher", bound: 0.10, kind: kindE2E}
	exact := &metricDef{name: "failed_share", better: "lower", bound: 0, kind: kindClass}
	steady := func(med float64) sideStats { return sideStats{n: 5, med: med, q1: med * 0.99, q3: med * 1.01} }
	cases := []struct {
		d    *metricDef
		a, b sideStats
		want verdict
	}{
		{lower, steady(100), steady(105), vWithin},
		{lower, steady(100), steady(115), vRegressed},
		{lower, steady(100), steady(85), vImproved},
		{higher, steady(100), steady(85), vRegressed},
		{higher, steady(100), steady(115), vImproved},
		{lower, steady(100), sideStats{n: 5, med: 100, q1: 90, q3: 110}, vUnresolved},
		{lower, steady(100), sideStats{n: 4, med: 130, q1: 129, q3: 131}, vUnresolved},
		{exact, sideStats{n: 5}, sideStats{n: 5}, vWithin},
		{exact, sideStats{n: 5}, sideStats{n: 5, med: 0.01, q1: 0.01, q3: 0.01}, vRegressed},
		{&metricDef{name: "core.merges", kind: kindLayer}, steady(10), steady(20), vInfo},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.name, c.a.med, c.b.med, got, c.want)
		}
	}
}

func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := record{Workload: "serve_read", Seed: int64(i), Correct: true, Attempted: 10,
				Metrics: metricSet{"ops_per_s": {Value: opsPerS * (1 + 0.001*float64(i)), Unit: "1/s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, same, slow := write("a.jsonl", 40000), write("b.jsonl", 39000), write("c.jsonl", 25000)
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 || !strings.Contains(out.String(), "within") {
		t.Errorf("comparison within bound exited %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("comparison with a regression exited %d\n%s", code, out.String())
	}
}

func TestGuardedRepsKeepsTheCount(t *testing.T) {
	calls := 0
	kept, nz := guardedReps(3, func(int) time.Duration { calls++; return time.Millisecond })
	if len(kept) != 3 || calls < 3 || calls > 6 || nz.repsDropped != calls-3 {
		t.Errorf("kept %d of %d repetitions, %d reported dropped", len(kept), calls, nz.repsDropped)
	}
}

func TestCalmSegments(t *testing.T) {
	seg := func(calibMs float64, steal float64) segment {
		return segment{wall: time.Second, calib: time.Duration(calibMs * float64(time.Millisecond)), steal: steal}
	}
	// One slow calibration and one stolen segment are set aside.
	kept, nz := calmSegments([]segment{seg(5.8, 0), seg(6.0, 0), seg(6.5, 0), seg(5.9, 0.2), seg(5.8, 0)})
	if len(kept) != 3 || nz.repsDropped != 2 || nz.noisy {
		t.Errorf("kept %d segments, %d set aside, noisy=%v; want 3, 2, false", len(kept), nz.repsDropped, nz.noisy)
	}
	// With fewer than a quarter calm the run is reported whole and labelled.
	kept, nz = calmSegments([]segment{seg(5.8, 0), seg(7, 0), seg(7, 0), seg(7, 0), seg(7, 0)})
	if len(kept) != 5 || !nz.noisy {
		t.Errorf("kept %d segments, noisy=%v; want all 5 and the label", len(kept), nz.noisy)
	}
}
