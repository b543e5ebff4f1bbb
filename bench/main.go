// Command bench is this repository's benchmark: six workloads, five
// end-to-end metrics every workload prints, class-resolved latencies,
// and a traced run that attributes time to the layers from outside.
// BENCHMARK.json at the repository root declares it to the pipeline;
// README.md in this directory explains every workload and metric.
//
//	go run ./bench -workload serve_live -seed 1 -seconds 10
//	go run ./bench -workload all -trace 1
//	go run ./bench -quick
//	go run ./bench -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runDeadline bounds one workload: every outbound request's context
// carries it, and the pipeline allows a run 180 s.
const runDeadline = 170 * time.Second

// record is one run as written to an -out file (one JSON line per run)
// and read back by -compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick"`
	Correct   bool                   `json:"correct"`
	Noisy     bool                   `json:"noisy"` // the noise guard's label; never fails a run
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summaryLine is the pipeline's contract for the last line of output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "derives the graph seed and every client's op-stream seed")
	seconds := fs.Float64("seconds", 10, "sizes the fixed work: operations = reference rate x seconds")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics and a span file), 0 = end-to-end run")
	traceOut := fs.String("trace-out", "", "span file (default .bench_out/trace-<workload>-seed<n>.json)")
	quick := fs.Bool("quick", false, "about 1/50 of the work on small graphs, every gate on (for the test suite)")
	out := fs.String("out", "", "append each run's result to this file, one JSON line per run")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	var defs []*workloadDef
	if *workload == "all" {
		for i := range workloadDefs {
			defs = append(defs, &workloadDefs[i])
		}
	} else if w := findWorkload(*workload); w != nil {
		defs = append(defs, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	prof := &fullProfile
	if *quick {
		prof = &quickProfile
		if !flagSet(fs, "seconds") {
			*seconds = 0.2
		}
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	// Scratch files stay inside the working directory (the checkout).
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	if tmp, err = filepath.Abs(tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	e := &env{prof: prof, seed: *seed, seconds: *seconds, tmp: tmp}
	status := 0
	for _, w := range defs {
		rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick}
		fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d quick %v\n", w.name, *seed, *seconds, *trace, *quick)
		res, err := runOne(e, w, *trace != 0, *traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			rec.Attempted, rec.Failed = 1, 1
			status = 1
		} else {
			rec.Correct, rec.Noisy = true, res.noisy
			rec.Attempted, rec.Failed, rec.Metrics = res.attempted, res.failed, res.metrics
			for _, line := range res.info {
				fmt.Fprintf(stdout, "info %s %s\n", w.name, line)
			}
		}
		printMetrics(stdout, w.name, rec.Metrics)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				status = 1
			}
		}
		fmt.Fprintln(stdout, contractLine(rec))
	}
	return status
}

func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func runOne(e *env, w *workloadDef, traced bool, traceOut string) (*runResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if !traced {
		return w.run(ctx, e)
	}
	if traceOut == "" {
		traceOut = filepath.Join(".bench_out", fmt.Sprintf("trace-%s-seed%d.json", w.name, e.seed))
	}
	return runTrace(ctx, e, w, traceOut)
}

// printMetrics writes one "metric <workload> <name> <value> <unit>" line
// per metric, in registry order.
func printMetrics(w io.Writer, workload string, ms map[string]metricValue) {
	for _, d := range metricDefs {
		if v, ok := ms[d.name]; ok {
			fmt.Fprintf(w, "metric %s %s %v %s\n", workload, d.name, v.Value, v.Unit)
		}
	}
}

// contractLine keeps the metrics BENCHMARK.json declares for this kind
// of run: the end-to-end ones untraced, the per-layer ones traced.
func contractLine(rec record) string {
	want := kindE2E
	if rec.Trace {
		want = kindLayer
	}
	line := summaryLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]metricValue{}}
	for name, v := range rec.Metrics {
		if metricByName[name].kind == want {
			line.Metrics[name] = v
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(b)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
