package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// The six workloads. Each is fixed work: -seconds chooses how many
// operations or repetitions a run has (at the reference box's rates),
// the list is precomputed from -seed during set-up, and the timed
// section executes all of it. Shapes and mixes never scale; only counts
// do. README.md says why each workload exists.

type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, e *env) (*runResult, error)
	// graph and cfg are what the traced run walks through the layers.
	graph func(e *env) *Graph
	cfg   func(e *env) buildCfg
	// mix is the workload's own read traffic, sampled by the traced run
	// (nil for the workloads that send none).
	mix *opMix
}

var workloadDefs = []workloadDef{
	{
		name: "build_hier",
		why:  "summarizer on the paper's target structure: merge evaluation and the exact bipartite solve dominate",
		run: func(ctx context.Context, e *env) (*runResult, error) {
			return runBuild(ctx, e, "build_hier", e.hierGraph)
		},
		graph: func(e *env) *Graph { return e.hierGraph(0) },
		cfg:   (*env).buildCfg,
	},
	{
		name: "build_skew",
		why:  "same summarizer on an incompressible scale-free graph: candidate generation and hopeless evaluations dominate",
		run: func(ctx context.Context, e *env) (*runResult, error) {
			return runBuild(ctx, e, "build_skew", e.skewGraph)
		},
		graph: func(e *env) *Graph { return e.skewGraph(0) },
		cfg:   (*env).buildCfg,
	},
	{
		name:  "analytics",
		why:   "PageRank run in-process on the compiled summary: the engine's neighbor query is nearly all of the time, HTTP none",
		run:   runAnalytics,
		graph: (*env).servedGraph,
		cfg:   (*env).servedCfg,
	},
	{
		name:  "serve_read",
		why:   "read-only HTTP serving off the mmap engine: point ops are transport-bound, batch ops engine-and-encode-bound",
		run:   runServeRead,
		graph: (*env).servedGraph,
		cfg:   (*env).servedCfg,
		mix:   &serveReadMix,
	},
	{
		name:  "serve_live",
		why:   "writes beside reads: overlay apply, WAL append, background compactions on the second core and overlay-merged reads",
		run:   runServeLive,
		graph: (*env).servedGraph,
		cfg:   (*env).servedCfg,
		mix:   &serveLiveReadMix,
	},
	{
		name:  "fed_read",
		why:   "coordinator in front of three shard servers: the federation hop and the second copy of the HTTP surface",
		run:   runFedRead,
		graph: (*env).servedGraph,
		cfg:   (*env).servedCfg,
		mix:   &fedReadMix,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

var (
	serveReadMix     = opMix{opPoint: 0.70, opHasEdge: 0.15, opBatchBin: 0.10, opBatchJSON: 0.05}
	serveLiveReadMix = opMix{opPoint: 0.80, opBatchBin: 0.20}
	fedReadMix       = opMix{opPoint: 0.65, opHasEdge: 0.20, opBatchJSON: 0.15}
)

// updateShare is serve_live's share of POST /update.
const updateShare = 0.04

// profile fixes every shape and size of a run. The full profile is the
// benchmark; the quick one (-quick) is the same code at about 1/50 of
// the work, for the test suite.
type profile struct {
	served     hierShape // the graph the four serving-side workloads share
	servedT    int
	buildHier  hierShape
	baNodes    int
	buildT     int
	minReps    int
	compactAt  int // serve_live's compaction threshold
	overlayMid int // overlay sizes of the model.overlay_* / apply_* probes
	overlayBig int
	// Reference-box rates: operations (or repetitions) per second of -seconds.
	buildRate                              map[string]float64
	analyticsRate                          float64
	serveReadRate, serveLiveRate, fedRate  float64
	bootReps, edgeProbes, probeOps, pacedN int
	pacedFor                               time.Duration
	segSeconds                             float64 // a serving segment, at the reference rate
}

var fullProfile = profile{
	served:    hierShape{4, 5, 12, []float64{0.00002, 0.0008, 0.01, 0.2, 0.9}},
	servedT:   10,
	buildHier: hierShape{3, 5, 12, []float64{0.0008, 0.01, 0.2, 0.9}},
	baNodes:   5000,
	buildT:    20,
	minReps:   9,
	compactAt: 10000, overlayMid: 5000, overlayBig: 10000,
	buildRate: map[string]float64{"build_hier": 0.9, "build_skew": 1.3}, analyticsRate: 17,
	serveReadRate: 22000, serveLiveRate: 14000, fedRate: 8500,
	bootReps: 200, edgeProbes: 10000, probeOps: 400, pacedN: 4,
	pacedFor: 500 * time.Millisecond, segSeconds: 0.25,
}

var quickProfile = profile{
	served:    hierShape{3, 4, 10, []float64{0.002, 0.02, 0.3, 0.9}},
	servedT:   5,
	buildHier: hierShape{2, 5, 12, []float64{0.01, 0.2, 0.9}},
	baNodes:   600,
	buildT:    5,
	minReps:   3,
	compactAt: 400, overlayMid: 200, overlayBig: 400,
	buildRate: map[string]float64{"build_hier": 0.9, "build_skew": 1.3}, analyticsRate: 17,
	serveReadRate: 22000, serveLiveRate: 14000, fedRate: 8500,
	bootReps: 5, edgeProbes: 500, probeOps: 40, pacedN: 2,
	pacedFor: 150 * time.Millisecond, segSeconds: 0.02,
}

func (p *profile) count(rate, seconds float64, floor int) int {
	return max(int(math.Round(rate*seconds)), floor)
}

// segOps is the length of a serving segment in operations: segSeconds
// of the workload's reference rate.
func (p *profile) segOps(rate float64) int {
	return max(int(rate*p.segSeconds), 20)
}

// env is one invocation's state: the profile, the seed, a scratch
// directory inside the checkout, and the served artifact, which a
// `-workload all` run builds once.
type env struct {
	prof    *profile
	seed    int64
	seconds float64
	tmp     string

	served *servedArtifact
}

type servedArtifact struct {
	g      *Graph
	art    Artifact
	engine *Engine
}

func (e *env) buildCfg() buildCfg {
	return buildCfg{iterations: e.prof.buildT, workers: 1, seed: e.seed}
}
func (e *env) servedCfg() buildCfg {
	return buildCfg{iterations: e.prof.servedT, workers: 1, seed: e.seed}
}

func (e *env) servedGraph() *Graph { return genHier(e.prof.served, e.seed) }

// hierGraph and skewGraph draw the i-th graph of a build workload.
func (e *env) hierGraph(i int) *Graph { return genHier(e.prof.buildHier, buildGraphSeed(e.seed, i)) }
func (e *env) skewGraph(i int) *Graph { return genBA(e.prof.baNodes, 3, buildGraphSeed(e.seed, i)) }

func (e *env) servedBuild(ctx context.Context) (*servedArtifact, error) {
	if e.served != nil {
		return e.served, nil
	}
	g := e.servedGraph()
	art, cs, err := buildQueryable(ctx, g, e.servedCfg())
	if err != nil {
		return nil, err
	}
	e.served = &servedArtifact{g: g, art: art, engine: cs}
	return e.served, nil
}

// dir makes a fresh scratch directory for one purpose.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.tmp, name+"-")
}

// runResult is what one untraced or traced run of one workload found.
type runResult struct {
	metrics   metricSet
	attempted int
	failed    int
	noisy     bool     // the noise guard's label
	info      []string // human-readable facts: digests, sizes
}

func (r *runResult) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *runResult) setFailedShare() {
	r.metrics.set("failed_share", float64(r.failed)/float64(r.attempted))
}

// bootMedian is boot_ms: the median of reps cold opens of a v2 file.
func bootMedian(reps int, path string) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		if err := bootOnce(path); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return medianOf(d), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// setLatency fills the three universal latency metrics from per-op
// samples and the timed wall.
func setLatency(m metricSet, all []time.Duration, wall time.Duration) {
	asc := sorted(all)
	m.set("ops_per_s", float64(len(all))/wall.Seconds())
	m.set("p50_us", usec(quantile(asc, 0.5)))
	m.set("tail_us", usec(quantile(asc, tailQuantile(len(asc)))))
}

// ---- build_hier, build_skew ----

func runBuild(ctx context.Context, e *env, name string, gen func(i int) *Graph) (*runResult, error) {
	t0 := time.Now()
	cfg := e.buildCfg()
	res := &runResult{metrics: metricSet{}}

	// Every repetition builds its own graph of the workload's shape
	// (graph seeds seed*64 + i): build time depends on the draw by ±8%,
	// and a run that averages over draws measures the program, not one
	// graph. Graph 0 is built once more at Workers = 2 during set-up;
	// its bytes are what the timed Workers = 1 build of graph 0 must
	// reproduce.
	reps := e.prof.count(e.prof.buildRate[name], e.seconds, e.prof.minReps)
	graphs := make([]*Graph, reps)
	var edges int64
	for i := range graphs {
		graphs[i] = gen(i)
		_, m := graphSize(graphs[i])
		edges += m
	}
	cfg2 := cfg
	cfg2.workers = 2
	ref, _, err := buildQueryable(ctx, graphs[0], cfg2)
	if err != nil {
		return nil, err
	}
	refBytes, err := artifactBytes(ref)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)

	arts := make([]Artifact, reps)
	var gateErr error
	kept, nz := guardedReps(reps, func(i int) time.Duration {
		r0 := time.Now()
		art, _, err := buildQueryable(ctx, graphs[i], cfg)
		d := time.Since(r0)
		gateErr = errors.Join(gateErr, err)
		arts[i] = art
		return d
	})
	if gateErr != nil {
		return nil, gateErr
	}
	var cost int64
	for i, art := range arts {
		if err := validateArtifact(art, graphs[i]); err != nil {
			return nil, fmt.Errorf("%s: artifact %d is not lossless: %w", name, i, err)
		}
		cost += artifactCost(art)
	}
	if b, err := artifactBytes(arts[0]); err != nil || !bytes.Equal(b, refBytes) {
		return nil, errors.Join(err, fmt.Errorf("%s: artifact bytes differ between Workers=1 and Workers=2", name))
	}

	res.attempted = len(kept)
	setLatency(res.metrics, kept, sum(kept))
	res.metrics.set("setup_s", setup.Seconds())
	res.metrics.set("relative_size", float64(cost)/float64(edges))
	res.metrics.set("build_edges_per_s", float64(edges)/sum(kept).Seconds())
	res.setFailedShare()
	nodes, _ := graphSize(graphs[0])
	res.note("%d graphs, n=%d, m=%d in all; %d builds redone as noisy; artifact 0 sha256 %s (Workers 1 = Workers 2)",
		reps, nodes, edges, nz.repsDropped, digest(refBytes))
	noteNoise(res, nz)
	return res, nil
}

// ---- analytics ----

const (
	prDamping = 0.85
	prIters   = 10
)

func runAnalytics(ctx context.Context, e *env) (*runResult, error) {
	t0 := time.Now()
	sa, err := e.servedBuild(ctx)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: metricSet{}}
	want := pageRankRaw(sa.g, prDamping, prIters)
	got := pageRankCompiled(sa.engine, prDamping, prIters)
	if err := sameVector(want, got, 1e-12); err != nil {
		return nil, fmt.Errorf("analytics: PageRank on the summary differs from PageRank on the graph: %w", err)
	}
	setup := time.Since(t0)

	reps := e.prof.count(e.prof.analyticsRate, e.seconds, e.prof.minReps)
	var gateErr error
	kept, nz := guardedReps(reps, func(int) time.Duration {
		r0 := time.Now()
		v := pageRankCompiled(sa.engine, prDamping, prIters)
		d := time.Since(r0)
		if v[0] != got[0] || v[len(v)-1] != got[len(got)-1] {
			gateErr = errors.New("analytics: PageRank is not repeatable")
		}
		return d
	})
	if gateErr != nil {
		return nil, gateErr
	}

	res.attempted = len(kept)
	setLatency(res.metrics, kept, sum(kept))
	res.metrics.set("setup_s", setup.Seconds())
	nodes, edges := graphSize(sa.g)
	res.metrics.set("relative_size", float64(artifactCost(sa.art))/float64(edges))
	res.metrics.set("traverse_medges_per_s", 2*float64(edges)*prIters/medianOf(kept).Seconds()/1e6)
	res.setFailedShare()
	res.note("graph n=%d m=%d; %d reps kept, %d dropped as noisy", nodes, edges, len(kept), nz.repsDropped)
	noteNoise(res, nz)
	return res, nil
}

func sameVector(want, got []float64, tol float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > tol {
			return fmt.Errorf("rank[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	return nil
}

// ---- the three serving workloads ----

// servingMetrics turns a closed loop's samples into the metrics of a
// serving workload. Each calm segment gives a rate, a median and a tail
// of its own; the three universal metrics are the better quartile of
// those (third of the rates, first of the latencies). Host noise only
// ever slows a segment, and on a shared box it can slow most of a run,
// so the better quartile is what the undisturbed program does, while a
// change to the program moves every segment and the quartile with them.
// The class-resolved metrics pool the calm segments' samples.
func servingMetrics(res *runResult, lr *loopResult, ops *opList) noise {
	kept, nz := calmSegments(lr.segs)
	res.attempted, res.failed = lr.attempted, lr.failed
	var rate, p50, tail []float64
	var byClass [numClasses][]time.Duration
	var all []time.Duration
	for _, s := range kept {
		all = append(all[:0], lr.lat[s.lo:s.hi]...)
		for i, d := range all {
			c := ops.recs[s.lo+i].kind.class()
			byClass[c] = append(byClass[c], d)
		}
		slices.Sort(all)
		rate = append(rate, float64(len(all))/s.wall.Seconds())
		p50 = append(p50, usec(quantile(all, 0.5)))
		tail = append(tail, usec(quantile(all, tailQuantile(len(all)))))
	}
	_, q3 := quartiles(rate)
	res.metrics.set("ops_per_s", q3)
	q1, _ := quartiles(p50)
	res.metrics.set("p50_us", q1)
	q1, _ = quartiles(tail)
	res.metrics.set("tail_us", q1)
	for c, prefix := range [numClasses]string{"point", "batch", "update"} {
		if len(byClass[c]) == 0 {
			continue
		}
		asc := sorted(byClass[c])
		res.metrics.set(prefix+"_p50_us", usec(quantile(asc, 0.5)))
		res.metrics.set(prefix+"_p99_us", usec(quantile(asc, 0.99)))
		res.note("%s: %d samples", prefix, len(asc))
	}
	res.setFailedShare()
	res.note("%d of %d segments of %d ops kept as calm", len(kept), len(lr.segs), lr.segs[0].hi-lr.segs[0].lo)
	return nz
}

func noteNoise(res *runResult, nz noise) {
	res.noisy = nz.noisy
	res.metrics.set("calib_ms", msec(nz.calibMin))
	res.note("noise: calib %.2f ms, spread %.3f, steal %.3f, redone or set aside=%d, noisy=%v",
		msec(nz.calibMin), nz.calibSpread, nz.stealShare, nz.repsDropped, nz.noisy)
}

// clientList draws the client's op stream of total operations from mix.
func clientList(e *env, n, total int, mix opMix) *opList {
	g := &opGen{rng: streamRNG(e.seed, 0), z: newZipf(n, 1.0, streamRNG(e.seed, 99)), mix: mix}
	return g.list(total)
}

func runServeRead(ctx context.Context, e *env) (*runResult, error) {
	t0 := time.Now()
	sa, err := e.servedBuild(ctx)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: metricSet{}}
	dir, err := e.dir("serve_read")
	if err != nil {
		return nil, err
	}
	v2 := filepath.Join(dir, "served.slgc")
	if err := saveV2(v2, sa.art); err != nil {
		return nil, err
	}
	boot, err := bootMedian(e.prof.bootReps, v2)
	if err != nil {
		return nil, err
	}
	cs, unmap, err := openMappedEngine(v2)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(staticHandler(cs))
	if err != nil {
		return nil, errors.Join(err, unmap())
	}
	release := func() error { return errors.Join(srv.stop(), unmap()) }

	n, edges := graphSize(sa.g)
	ops := clientList(e, n, e.prof.count(e.prof.serveReadRate, e.seconds, 200), serveReadMix)
	err = verifyServed(ctx, srv.base, graphTruth(sa.g), verifyAll, e.prof.edgeProbes, streamRNG(e.seed, 77))
	if err != nil {
		return nil, errors.Join(fmt.Errorf("serve_read: %w", err), release())
	}
	setup := time.Since(t0)

	lr := runClosedLoop(ctx, srv.base, ops, e.prof.segOps(e.prof.serveReadRate))
	if err := release(); err != nil {
		return nil, err
	}
	nz := servingMetrics(res, &lr, ops)
	res.metrics.set("setup_s", setup.Seconds())
	res.metrics.set("relative_size", float64(artifactCost(sa.art))/float64(edges))
	res.metrics.set("boot_ms", msec(boot))
	res.note("graph n=%d m=%d; op list sha256 %s", n, edges, opsDigest(ops))
	noteNoise(res, nz)
	return res, nil
}

func runFedRead(ctx context.Context, e *env) (*runResult, error) {
	t0 := time.Now()
	g := e.servedGraph()
	res := &runResult{metrics: metricSet{}}
	dir, err := e.dir("fed_read")
	if err != nil {
		return nil, err
	}
	f, err := startFederation(ctx, g, e.servedCfg(), dir)
	if err != nil {
		return nil, err
	}
	n, edges := graphSize(g)
	ops := clientList(e, n, e.prof.count(e.prof.fedRate, e.seconds, 200), fedReadMix)
	err = verifyServed(ctx, f.front.base, graphTruth(g), verifyAll, e.prof.edgeProbes, streamRNG(e.seed, 77))
	if err != nil {
		return nil, errors.Join(fmt.Errorf("fed_read: %w", err), f.stop())
	}
	setup := time.Since(t0)

	lr := runClosedLoop(ctx, f.front.base, ops, e.prof.segOps(e.prof.fedRate))
	retries, hedges, open := f.coord.resilience()
	if err := f.stop(); err != nil {
		return nil, err
	}
	nz := servingMetrics(res, &lr, ops)
	res.metrics.set("setup_s", setup.Seconds())
	res.metrics.set("relative_size", float64(shardedCost(f.sharded))/float64(edges))
	res.note("graph n=%d m=%d; 3 shards; op list sha256 %s", n, edges, opsDigest(ops))
	res.note("fed client: retries=%d hedges=%d breakers_open=%d", retries, hedges, open)
	noteNoise(res, nz)
	return res, nil
}

// federation is three shard servers and a coordinator in front of them,
// all in this process on loopback.
type federation struct {
	sharded    *Sharded
	shardFiles []string
	engines    []*Engine
	shards     []*server
	coord      *coordinator
	front      *server
	// Durations of the two build steps, for the traced run.
	summarizeTook, splitTook time.Duration
}

func startFederation(ctx context.Context, g *Graph, cfg buildCfg, dir string) (f *federation, err error) {
	const k = 3
	f = &federation{}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop())
		}
	}()
	t0 := time.Now()
	if f.sharded, err = summarizeSharded(ctx, g, k, cfg); err != nil {
		return f, err
	}
	f.summarizeTook = time.Since(t0)
	t0 = time.Now()
	man, err := splitSharded(f.sharded, dir)
	if err != nil {
		return f, err
	}
	f.splitTook = time.Since(t0)
	urls := make([]string, k)
	for s := 0; s < k; s++ {
		h, cs, file, err := shardHandler(man, dir, s)
		if err != nil {
			return f, err
		}
		srv, err := startServer(h)
		if err != nil {
			return f, err
		}
		f.shards = append(f.shards, srv)
		f.engines = append(f.engines, cs)
		f.shardFiles = append(f.shardFiles, file)
		urls[s] = srv.base
	}
	if f.coord, err = newCoordinator(ctx, f.sharded, urls); err != nil {
		return f, err
	}
	f.front, err = startServer(f.coord.handler())
	return f, err
}

func (f *federation) stop() error {
	var err error
	if f.front != nil {
		err = f.front.stop()
	}
	for _, s := range f.shards {
		err = errors.Join(err, s.stop())
	}
	return err
}

// liveAttempt is one full serve_live run: a fresh durable artifact and
// server, the timed loop, and every post-run gate.
type liveAttempt struct {
	loop  loopResult
	setup time.Duration // this attempt's own share of set-up
	stats liveCounters
}

func runServeLive(ctx context.Context, e *env) (*runResult, error) {
	t0 := time.Now()
	sa, err := e.servedBuild(ctx)
	if err != nil {
		return nil, err
	}
	res := &runResult{metrics: metricSet{}}
	dir, err := e.dir("serve_live")
	if err != nil {
		return nil, err
	}

	n, edges := graphSize(sa.g)
	ops, finalAdj := serveLiveList(e, sa.g, e.prof.count(e.prof.serveLiveRate, e.seconds, 200))
	shared := time.Since(t0)

	at, err := serveLiveOnce(ctx, e, sa, ops, finalAdj, filepath.Join(dir, "wal"))
	if err != nil {
		return nil, fmt.Errorf("serve_live: %w", err)
	}
	nz := servingMetrics(res, &at.loop, ops)
	res.metrics.set("setup_s", (shared + at.setup).Seconds())
	res.metrics.set("relative_size", float64(artifactCost(sa.art))/float64(edges))
	res.note("graph n=%d m=%d; op list sha256 %s", n, edges, opsDigest(ops))
	res.note("live: compactions=%d wal_records=%d wal_syncs=%d recovered_records=%d",
		at.stats.compactions, at.stats.walAppends, at.stats.walSyncs, at.stats.recoveredRecords)
	noteNoise(res, nz)
	return res, nil
}

// serveLiveList draws serve_live's op stream and the graph it leaves
// behind, which is a function of the seed alone.
func serveLiveList(e *env, g *Graph, total int) (ops *opList, finalAdj [][]int32) {
	n, _ := graphSize(g)
	ref := newRefGraph(n, graphEdges(g))
	gen := &opGen{rng: streamRNG(e.seed, 0), z: newZipf(n, 1.0, streamRNG(e.seed, 99)), mix: serveLiveReadMix, ref: ref}
	for k := range gen.mix {
		gen.mix[k] *= 1 - updateShare
	}
	gen.mix[opUpdate] = updateShare
	return gen.list(total), ref.adjacency()
}

func serveLiveOnce(ctx context.Context, e *env, sa *servedArtifact, ops *opList, finalAdj [][]int32, walDir string) (at liveAttempt, err error) {
	t0 := time.Now()
	up, err := newUpdatable(sa.art, e.servedCfg(), e.prof.compactAt, walDir)
	if err != nil {
		return at, err
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, closeUpdatable(up))
		}
	}()
	srv, err := startServer(liveHandler(up))
	if err != nil {
		return at, err
	}
	stopped := false
	defer func() {
		if !stopped {
			err = errors.Join(err, srv.stop())
		}
	}()
	if err := verifyServed(ctx, srv.base, graphTruth(sa.g), verifyBinary, e.prof.edgeProbes/10, streamRNG(e.seed, 77)); err != nil {
		return at, fmt.Errorf("before the run: %w", err)
	}
	at.setup = time.Since(t0)

	at.loop = runClosedLoop(ctx, srv.base, ops, e.prof.segOps(e.prof.serveLiveRate))

	// Gates: the served graph equals the writer's reference, and so does
	// what a restart recovers from the WAL directory alone.
	quiesce(up)
	at.stats = readLiveCounters(up)
	truth := adjacencyTruth(finalAdj)
	if err := verifyServed(ctx, srv.base, truth, verifyBinary, e.prof.edgeProbes/10, streamRNG(e.seed, 78)); err != nil {
		return at, fmt.Errorf("after the run: %w", err)
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return at, err
	}
	closed = true
	if err := closeUpdatable(up); err != nil {
		return at, err
	}
	re, err := reopenUpdatable(walDir, e.servedCfg(), e.prof.compactAt)
	if err != nil {
		return at, fmt.Errorf("reopening the WAL directory: %w", err)
	}
	at.stats.recoveredRecords = readLiveCounters(re).recoveredRecords
	same := graphsEqual(decodeUpdatable(re), graphFromAdjacency(finalAdj))
	if err := closeUpdatable(re); err != nil {
		return at, err
	}
	if !same {
		return at, errors.New("the graph recovered after restart differs from the acknowledged updates")
	}
	return at, nil
}

// ---- correctness of served answers ----

func adjacencyTruth(adj [][]int32) truth {
	return truth{
		n:         len(adj),
		neighbors: func(v int32) []int32 { return adj[v] },
		hasEdge: func(u, v int32) bool {
			for _, x := range adj[u] {
				if x == v {
					return true
				}
			}
			return false
		},
	}
}

type verifyMode int

const (
	verifyBinary verifyMode = iota // every vertex through the binary batch endpoint
	verifyAll                      // and through GET /neighbors and the JSON batch endpoint
)

type neighborsJSON struct {
	V         int32   `json:"v"`
	Degree    int     `json:"degree"`
	Neighbors []int32 `json:"neighbors"`
}

// verifyServed fetches every vertex's neighbor list over the endpoints
// of mode and compares it with the truth, then probes hasedge with
// pairs that are edges and pairs that are probably not. It doubles as
// the warm-up pass.
func verifyServed(ctx context.Context, base string, t truth, mode verifyMode, edgeProbes int, rng *rand.Rand) error {
	c := newClient(ctx, base)
	defer c.close()
	check := func(v int32, got []int32, via string) error {
		want := t.neighbors(v)
		if len(got) != len(want) {
			return fmt.Errorf("%s: vertex %d has %d neighbors, want %d", via, v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("%s: vertex %d neighbor %d is %d, want %d", via, v, i, got[i], want[i])
			}
		}
		return nil
	}
	for lo := 0; lo < t.n; lo += batchIDs {
		ids := make([]int32, 0, batchIDs)
		for v := lo; v < min(lo+batchIDs, t.n); v++ {
			ids = append(ids, int32(v))
		}
		body, ok := c.send("POST", "/batch/neighbors", encodeBinaryBatch(ids))
		lists, parsed := decodeBinaryBatch(body, len(ids))
		if !ok || !parsed {
			return fmt.Errorf("binary batch at vertex %d: bad reply", lo)
		}
		for i, v := range ids {
			if err := check(v, lists[i], "binary batch"); err != nil {
				return err
			}
		}
		if mode != verifyAll {
			continue
		}
		body, ok = c.send("POST", "/neighbors", encodeJSONBatch(ids))
		var results []neighborsJSON
		if !ok || json.Unmarshal(body, &results) != nil || len(results) != len(ids) {
			return fmt.Errorf("JSON batch at vertex %d: bad reply", lo)
		}
		for i, v := range ids {
			if results[i].V != v || results[i].Degree != len(results[i].Neighbors) {
				return fmt.Errorf("JSON batch: entry %d is vertex %d degree %d", i, results[i].V, results[i].Degree)
			}
			if err := check(v, results[i].Neighbors, "JSON batch"); err != nil {
				return err
			}
		}
		for _, v := range ids {
			body, ok = c.send("GET", "/neighbors?v="+strconv.Itoa(int(v)), nil)
			var one neighborsJSON
			if !ok || json.Unmarshal(body, &one) != nil || one.V != v {
				return fmt.Errorf("GET /neighbors?v=%d: bad reply", v)
			}
			if err := check(v, one.Neighbors, "GET /neighbors"); err != nil {
				return err
			}
		}
	}
	for i := 0; i < edgeProbes; i++ {
		u, v := int32(rng.Intn(t.n)), int32(rng.Intn(t.n))
		if nb := t.neighbors(u); i%2 == 0 && len(nb) > 0 {
			v = nb[rng.Intn(len(nb))]
		}
		body, ok := c.send("GET", "/hasedge?u="+strconv.Itoa(int(u))+"&v="+strconv.Itoa(int(v)), nil)
		var he struct {
			Exists bool `json:"exists"`
		}
		if !ok || json.Unmarshal(body, &he) != nil {
			return fmt.Errorf("GET /hasedge?u=%d&v=%d: bad reply", u, v)
		}
		if want := t.hasEdge(u, v); he.Exists != want {
			return fmt.Errorf("hasedge(%d,%d) = %v, want %v", u, v, he.Exists, want)
		}
	}
	return nil
}
