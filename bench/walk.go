package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The traced run. The pipeline wants every per-layer metric from every
// workload's traced run, so a trace does not re-run the workload: it
// walks the workload's own graph, with the workload's own build
// options, through every layer once — graph, core, model, algos, slug,
// wal, serve, fed, loadgen — and records a span around every call. The
// read operations it replays are a sample of the workload's own mix
// (where it has one) followed by a fixed probe of every operation
// kind, so every class has samples whatever the workload sends.

// walk carries the state one traced run threads through its phases.
type walk struct {
	ctx context.Context
	e   *env
	w   *workloadDef
	tr  *tracer
	m   metricSet
	res *runResult
	dir string

	g     *Graph
	nodes int
	edges int64
	cfg   buildCfg
	art   Artifact
	cs    *Engine
	v1    string
	v2    string

	cleanup []func() error
}

func (wk *walk) deferClose(fn func() error) { wk.cleanup = append(wk.cleanup, fn) }

func (wk *walk) close() error {
	var err error
	for i := len(wk.cleanup) - 1; i >= 0; i-- {
		err = errors.Join(err, wk.cleanup[i]())
	}
	wk.cleanup = nil
	return err
}

// repeat runs fn n times, each in its own span, and returns the median.
func (wk *walk) repeat(name string, n int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, n)
	for i := range d {
		var err error
		if d[i], err = wk.tr.time(name, -1, fn); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return medianOf(d), nil
}

func runTrace(ctx context.Context, e *env, w *workloadDef, outPath string) (res *runResult, err error) {
	wk := &walk{ctx: ctx, e: e, w: w, tr: newTracer(), m: metricSet{}}
	wk.res = &runResult{metrics: wk.m}
	defer func() { err = errors.Join(err, wk.close()) }()
	if wk.dir, err = e.dir("trace-" + w.name); err != nil {
		return nil, err
	}
	meter := startSteal()
	calibs := []time.Duration{calibrateMin(3)}
	for _, phase := range []func() error{
		wk.graphPhase, wk.buildPhase, wk.persistPhase, wk.enginePhase,
		wk.servingPhase, wk.walPhase, wk.fedPhase,
	} {
		if err := phase(); err != nil {
			return nil, err
		}
		calibs = append(calibs, calibrateMin(3))
	}

	asc := sorted(calibs)
	spread := float64(asc[len(asc)-1]-asc[0]) / float64(asc[0])
	steal := meter.share()
	wk.m.set("bench.calib_ms", msec(asc[0]))
	wk.m.set("bench.calib_spread", spread)
	wk.m.set("bench.steal_share", steal)
	wk.m.set("bench.reps_dropped", 0)
	wk.res.noisy = spread > calibSpreadLimit || steal > stealLimit
	wk.m.set("bench.noisy", b2f(wk.res.noisy))
	wk.m.set("bench.peak_rss_mb", peakRSSMB())

	if err := writeTrace(outPath, traceFile{Workload: w.name, Seed: e.seed, Spans: wk.tr.spans}); err != nil {
		return nil, err
	}
	wk.res.note("%d spans written to %s", len(wk.tr.spans), outPath)
	return wk.res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---- graph ----

func (wk *walk) graphPhase() error {
	d, _ := wk.tr.time("graph.generate", -1, func() error { wk.g = wk.w.graph(wk.e); return nil })
	wk.m.set("graph.generate_s", d.Seconds())
	wk.nodes, wk.edges = graphSize(wk.g)
	wk.cfg = wk.w.cfg(wk.e)
	var cut int
	d, err := wk.tr.time("graph.partition", -1, func() (err error) { cut, err = partitionCut(wk.g, 3); return err })
	wk.m.set("graph.partition_s", d.Seconds())
	wk.m.set("graph.cut_edges", float64(cut))
	return err
}

// ---- core, model.compile ----

func (wk *walk) buildPhase() error {
	tr, m := wk.tr, wk.m
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	art, run, err := summarizeCore(wk.ctx, wk.g, wk.cfg)
	end := time.Now()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	if len(run.iterEnd) == 0 {
		return errors.New("trace: the build reported no iteration")
	}
	root := tr.add("slug.summarize", -1, start, end)
	lastIter := run.iterEnd[len(run.iterEnd)-1]
	its := tr.add("core.iterations", root, start, lastIter)
	prev, first, final := start, time.Duration(0), time.Duration(0)
	for t, at := range run.iterEnd {
		tr.add(fmt.Sprintf("core.iter[%d]", t+1), its, prev, at)
		if t == 0 {
			first = at.Sub(prev)
		}
		final = at.Sub(prev)
		prev = at
	}
	tr.add("core.prune", root, lastIter, end)
	m.set("core.iterations_s", lastIter.Sub(start).Seconds())
	m.set("core.iter1_s", first.Seconds())
	m.set("core.iterT_s", final.Seconds())
	m.set("core.prune_s", end.Sub(lastIter).Seconds())
	m.set("core.merges", float64(run.merges))
	m.set("core.cost_before_prune", float64(run.costBeforePrune))
	m.set("core.final_cost", float64(run.finalCost))
	m.set("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	m.set("core.allocs", float64(after.Mallocs-before.Mallocs))
	m.set("core.gc_cycles", float64(after.NumGC-before.NumGC))
	wk.art = art

	// The same build at Workers = 2: speed-up, and the bytes must match.
	cfg2 := wk.cfg
	cfg2.workers = 2
	var art2 Artifact
	d2, err := tr.time("slug.summarize.workers2", -1, func() (err error) {
		art2, _, err = summarizeCore(wk.ctx, wk.g, cfg2)
		return err
	})
	if err != nil {
		return err
	}
	b1, err1 := artifactBytes(art)
	b2, err2 := artifactBytes(art2)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if !bytes.Equal(b1, b2) {
		return errors.New("trace: artifact bytes differ between Workers=1 and Workers=2")
	}
	m.set("core.workers2_speedup", end.Sub(start).Seconds()/d2.Seconds())
	wk.res.note("artifact sha256 %s", digest(b1))

	d, err := tr.time("model.compile", -1, func() (err error) { wk.cs, err = compileArtifact(art); return err })
	if err != nil {
		return err
	}
	m.set("model.compile_ms", msec(d))
	height, depth := artifactShape(art)
	_, supernodes, superedges := engineSizes(wk.cs)
	m.set("model.height", float64(height))
	m.set("model.avg_leaf_depth", depth)
	m.set("model.supernodes", float64(supernodes))
	m.set("model.superedges", float64(superedges))
	return validateArtifact(art, wk.g)
}

// ---- slug persistence, model.decode / from_mapped ----

func (wk *walk) persistPhase() error {
	tr, m := wk.tr, wk.m
	wk.v1, wk.v2 = filepath.Join(wk.dir, "art.slga"), filepath.Join(wk.dir, "art.slgc")
	d, err := tr.time("slug.save_v1", -1, func() error { return saveV1(wk.v1, wk.art) })
	if err != nil {
		return err
	}
	m.set("slug.save_v1_ms", msec(d))
	if d, err = tr.time("slug.save_v2", -1, func() error { return saveV2(wk.v2, wk.art) }); err != nil {
		return err
	}
	m.set("slug.save_v2_ms", msec(d))
	for _, f := range []struct{ path, metric string }{{wk.v1, "slug.v1_bytes_per_edge"}, {wk.v2, "slug.v2_bytes_per_edge"}} {
		st, err := os.Stat(f.path)
		if err != nil {
			return err
		}
		m.set(f.metric, float64(st.Size())/float64(wk.edges))
	}

	reps := max(wk.e.prof.bootReps/5, 3)
	if d, err = wk.repeat("slug.load_v1", reps, func() error { _, err := loadV1(wk.v1); return err }); err != nil {
		return err
	}
	m.set("slug.load_v1_ms", msec(d))
	d, err = wk.repeat("slug.open_mapped", wk.e.prof.bootReps, func() error {
		_, unmap, err := openMappedEngine(wk.v2)
		if err != nil {
			return err
		}
		return unmap()
	})
	if err != nil {
		return err
	}
	m.set("slug.open_mapped_ms", msec(d))
	data, err := readAligned(wk.v2)
	if err != nil {
		return err
	}
	if d, err = wk.repeat("model.from_mapped", wk.e.prof.bootReps, func() error { return fromMapped(data) }); err != nil {
		return err
	}
	m.set("model.from_mapped_ms", msec(d))
	d, err = wk.repeat("model.decode", reps, func() error {
		if !graphsEqual(decodeEngine(wk.cs), wk.g) {
			return errors.New("the engine decodes to a different graph")
		}
		return nil
	})
	m.set("model.decode_ms", msec(d))
	return err
}

// ---- model engine, algos ----

func (wk *walk) enginePhase() error {
	tr, m, p := wk.tr, wk.m, wk.e.prof
	rng := streamRNG(wk.e.seed, 50)
	z := newZipf(wk.nodes, 1.0, streamRNG(wk.e.seed, 99))
	vs := make([]int32, p.probeOps*50)
	pairs := make([][2]int32, len(vs))
	for i := range vs {
		vs[i] = z.sample(rng)
		pairs[i] = [2]int32{z.sample(rng), z.sample(rng)}
	}
	d, _ := tr.time("model.neighbors", -1, func() error { engineNeighbors(wk.cs, vs); return nil })
	m.set("model.neighbors_ns", float64(d)/float64(len(vs)))
	d, _ = tr.time("model.hasedge", -1, func() error { engineHasEdge(wk.cs, pairs); return nil })
	m.set("model.hasedge_ns", float64(d)/float64(len(pairs)))
	batch := 0
	d, _ = wk.repeat("model.batch64", p.probeOps/2, func() error {
		engineBatch(wk.cs, vs[batch*batchIDs:(batch+1)*batchIDs])
		batch++
		return nil
	})
	m.set("model.batch64_us", usec(d))

	// algos' own share of PageRank: the run minus the same number of
	// neighbor queries asked back to back.
	total, _ := wk.repeat("algos.pagerank", 3, func() error { pageRankCompiled(wk.cs, prDamping, prIters); return nil })
	sweep, _ := wk.repeat("model.sweep", 3, func() error { engineSweep(wk.cs, prIters); return nil })
	m.set("algos.pagerank_ms", msec(total-sweep))
	wk.res.note("PageRank %.2f ms, of which engine sweep %.2f ms", msec(total), msec(sweep))

	// Overlay probes: grow an overlay with effective updates to the two
	// probe sizes, then time reads through it and one more Apply on it.
	ref := newRefGraph(wk.nodes, graphEdges(wk.g))
	empty := newOverlay(wk.cs)
	o := empty
	var mid *Overlay
	for overlayLen(o) < p.overlayBig {
		var err error
		if o, err = overlayApply(o, ref.nextUpdate(rng)); err != nil {
			return err
		}
		if mid == nil && overlayLen(o) >= p.overlayMid {
			mid = o
		}
	}
	d, _ = tr.time("model.overlay_neighbors", -1, func() error { overlayNeighbors(mid, vs); return nil })
	m.set("model.overlay_neighbors_ns", float64(d)/float64(len(vs)))
	for _, probe := range []struct {
		name, metric string
		on           *Overlay
	}{{"model.apply_empty", "model.apply_empty_us", empty}, {"model.apply_full", "model.apply_full_us", o}} {
		d, err := wk.repeat(probe.name, p.probeOps/2, func() error {
			_, err := overlayApply(probe.on, ref.nextUpdate(rng))
			return err
		})
		if err != nil {
			return err
		}
		m.set(probe.metric, usec(d))
	}
	return nil
}

// ---- serve, model.Live, slug recovery, loadgen ----

// traceOps is the operation list a trace replays: a sample of the
// workload's own read mix, then probeOps of every kind.
func (wk *walk) traceOps() []op {
	p := wk.e.prof
	z := newZipf(wk.nodes, 1.0, streamRNG(wk.e.seed, 99))
	var ops []op
	if wk.w.mix != nil {
		own := &opGen{rng: streamRNG(wk.e.seed, 0), z: z, mix: *wk.w.mix}
		for i := 0; i < p.probeOps*5; i++ {
			ops = append(ops, own.next())
		}
	}
	probe := &opGen{rng: streamRNG(wk.e.seed, 60), z: z, ref: newRefGraph(wk.nodes, graphEdges(wk.g))}
	// Enough updates to push the live twin over its compaction
	// threshold once, so the trace sees an auto-compaction and a
	// non-empty replay.
	updates := p.compactAt*106/100/updateEdges + p.probeOps/4
	for i := 0; i < max(p.probeOps, updates); i++ {
		for k := opPoint; k < opUpdate; k++ {
			if i < p.probeOps {
				ops = append(ops, probe.make(k))
			}
		}
		if i < updates {
			ops = append(ops, probe.make(opUpdate))
		}
	}
	return ops
}

// opTiming is what the trace keeps per replayed operation.
type opTiming struct {
	http, handler, inner time.Duration // inner: model.query for reads, model.apply for updates
	walAppend            time.Duration
	respBytes            int
}

func (wk *walk) servingPhase() (err error) {
	tr, m, p, ctx := wk.tr, wk.m, wk.e.prof, wk.ctx

	// The static server over the mapped v2 file, as serve_read runs it.
	cs, unmap, err := openMappedEngine(wk.v2)
	if err != nil {
		return err
	}
	wk.deferClose(unmap)
	static := staticHandler(cs)
	srv, err := startServer(static)
	if err != nil {
		return err
	}
	wk.deferClose(srv.stop)
	view := newOverlay(cs)

	// Three live twins over the same base take the same update stream:
	// one behind a socket with a WAL (as serve_live runs it), one called
	// with no socket, and a bare overlay chain; plus a scratch log.
	walDir := filepath.Join(wk.dir, "live-wal")
	live, err := newUpdatable(wk.art, wk.cfg, p.compactAt, walDir)
	if err != nil {
		return err
	}
	liveOpen := true
	wk.deferClose(func() error {
		if liveOpen {
			return closeUpdatable(live)
		}
		return nil
	})
	liveSrv, err := startServer(liveHandler(live))
	if err != nil {
		return err
	}
	wk.deferClose(liveSrv.stop)
	twin, err := newUpdatable(wk.art, wk.cfg, 0, "")
	if err != nil {
		return err
	}
	wk.deferClose(func() error { return closeUpdatable(twin) })
	twinHandler := liveHandler(twin)
	chain := newOverlay(wk.cs)
	scratchDir := filepath.Join(wk.dir, "scratch-wal")
	scratch, err := openWAL(scratchDir, false)
	if err != nil {
		return err
	}
	wk.deferClose(func() error { return closeWAL(scratch) })

	ops := wk.traceOps()
	reads := newClient(ctx, srv.base)
	writes := newClient(ctx, liveSrv.base)
	defer reads.close()
	defer writes.close()

	// Untraced pass over the read operations: the denominator of
	// bench.trace_overhead, and the warm-up.
	plainStart := time.Now()
	for i := range ops {
		if ops[i].kind != opUpdate {
			if _, ok := reads.do(&ops[i]); !ok {
				return fmt.Errorf("trace: %s failed", ops[i].path)
			}
		}
	}
	plain := time.Since(plainStart)

	rec := newRecorder()
	timings := make([]opTiming, len(ops))
	var tracedReads, updateHTTP time.Duration
	updates := 0
	for i := range ops {
		o, t := &ops[i], &timings[i]
		root := tr.begin("op."+opKindNames[o.kind], -1, i)
		if o.kind != opUpdate {
			id := tr.begin("http", root, i)
			_, ok := reads.do(o)
			t.http = tr.end(id)
			if !ok {
				return fmt.Errorf("trace: %s failed", o.path)
			}
			id = tr.begin("serve.handler", root, i)
			err = serveDirect(ctx, static, rec, o)
			t.handler = tr.end(id)
			if err != nil {
				return err
			}
			t.respBytes = rec.n
			id = tr.begin("model.query", root, i)
			viewQuery(view, o)
			t.inner = tr.end(id)
			tracedReads += tr.end(root)
			continue
		}
		id := tr.begin("http", root, i)
		_, ok := writes.do(o)
		t.http = tr.end(id)
		if !ok {
			return fmt.Errorf("trace: update %d failed", i)
		}
		id = tr.begin("serve.handler", root, i)
		err = serveDirect(ctx, twinHandler, rec, o)
		t.handler = tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("model.apply", root, i)
		chain, err = overlayApply(chain, o.ups)
		t.inner = tr.end(id)
		if err != nil {
			return err
		}
		payload := encodeWALBatch(o.ups)
		id = tr.begin("wal.append", root, i)
		_, err = appendWAL(scratch, payload)
		t.walAppend = tr.end(id)
		if err != nil {
			return err
		}
		tr.end(root)
		updateHTTP += t.http
		updates++
	}
	wk.res.attempted = len(ops)
	m.set("bench.trace_overhead", tracedReads.Seconds()/plain.Seconds())

	pick := func(field func(*opTiming) time.Duration, kinds ...opKind) []time.Duration {
		var out []time.Duration
		for i := range ops {
			for _, k := range kinds {
				if ops[i].kind == k {
					out = append(out, field(&timings[i]))
				}
			}
		}
		return out
	}
	handler := func(t *opTiming) time.Duration { return t.handler }
	self := func(t *opTiming) time.Duration { return t.handler - t.inner }
	transport := func(t *opTiming) time.Duration { return t.http - t.handler }
	m.set("serve.handler_point_us", usec(medianOf(pick(handler, opPoint))))
	m.set("serve.handler_hasedge_us", usec(medianOf(pick(handler, opHasEdge))))
	m.set("serve.handler_batch_us", usec(medianOf(pick(handler, opBatchBin))))
	m.set("serve.handler_batch_json_us", usec(medianOf(pick(handler, opBatchJSON))))
	m.set("serve.handler_update_us", usec(medianOf(pick(handler, opUpdate))))
	m.set("serve.self_point_us", usec(medianOf(pick(self, opPoint))))
	m.set("serve.self_batch_us", usec(medianOf(pick(self, opBatchBin, opBatchJSON))))
	m.set("serve.transport_point_us", usec(medianOf(pick(transport, opPoint))))
	m.set("serve.transport_batch_us", usec(medianOf(pick(transport, opBatchBin, opBatchJSON))))
	m.set("wal.append_us", usec(medianOf(pick(func(t *opTiming) time.Duration { return t.walAppend }, opUpdate))))
	meanBytes := func(kinds ...opKind) float64 {
		total, n := 0, 0
		for i := range ops {
			for _, k := range kinds {
				if ops[i].kind == k {
					total += timings[i].respBytes
					n++
				}
			}
		}
		return float64(total) / float64(n)
	}
	m.set("serve.resp_bytes_point", meanBytes(opPoint))
	m.set("serve.resp_bytes_batch", meanBytes(opBatchBin, opBatchJSON))

	// The open-loop generator against the same static server, and the
	// client's own cost against a handler that does nothing.
	var p50s, p99s, lags []float64
	for seg := 0; seg < p.pacedN; seg++ {
		var rep pacedReport
		_, err := tr.time("loadgen.run", -1, func() (err error) {
			rep, err = pacedRun(ctx, srv.base, wk.nodes, uint64(wk.e.seed)*31+uint64(seg), 1000, p.pacedFor)
			return err
		})
		if err != nil {
			return err
		}
		if rep.errors > 0 {
			return fmt.Errorf("trace: loadgen reported %d errors", rep.errors)
		}
		p50s, p99s, lags = append(p50s, rep.p50us), append(p99s, rep.p99us), append(lags, rep.schedLagMaxUs)
	}
	m.set("loadgen.paced_p50_us", medianFloat(p50s))
	m.set("loadgen.paced_p99_us", medianFloat(p99s))
	m.set("loadgen.sched_lag_max_us", medianFloat(lags))
	if err := wk.clientCost(); err != nil {
		return err
	}

	// What the static server counted.
	body, ok := reads.send(http.MethodGet, "/stats", nil)
	if !ok {
		return errors.New("trace: GET /stats failed")
	}
	errs, shed, err := servingCounters(body)
	if err != nil {
		return err
	}
	m.set("serve.errors", errs)
	m.set("serve.shed", shed)

	// The live twin behind the socket: its lock, its log, its restart.
	quiesce(live)
	lc := readLiveCounters(live)
	m.set("model.lock_hold_share", float64(lc.lockHoldNs)/float64(updateHTTP))
	m.set("model.lock_hold_max_us", float64(lc.lockHoldMaxNs)/1e3)
	m.set("model.compactions", float64(lc.compactions))
	m.set("wal.records", float64(lc.walAppends))
	m.set("wal.syncs", float64(lc.walSyncs))
	liveOpen = false
	if err := closeUpdatable(live); err != nil {
		return err
	}
	var re Updatable
	d, err := tr.time("slug.recover", -1, func() (err error) {
		re, err = reopenUpdatable(walDir, wk.cfg, p.compactAt)
		return err
	})
	if err != nil {
		return err
	}
	wk.deferClose(func() error { return closeUpdatable(re) })
	m.set("slug.recover_ms", msec(d))
	m.set("slug.recovered_records", float64(readLiveCounters(re).recoveredRecords))
	if !graphsEqual(decodeUpdatable(re), decodeUpdatable(twin)) {
		return errors.New("trace: the recovered graph differs from the twin that took the same updates")
	}
	if d, err = tr.time("model.compact", -1, func() error { return compactUpdatable(re) }); err != nil {
		return err
	}
	m.set("model.compact_s", d.Seconds())

	// Write amplification of the log, from the scratch log that took
	// every batch and never checkpointed.
	if err := syncWAL(scratch); err != nil {
		return err
	}
	segBytes, err := dirBytes(scratchDir, ".seg")
	if err != nil {
		return err
	}
	m.set("wal.bytes_per_update", float64(segBytes)/float64(updates*updateEdges))
	return nil
}

// clientCost measures bench.client_us: the median round trip of this
// benchmark's client against a handler that does no work.
func (wk *walk) clientCost() error {
	noop, err := startServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n")) // a reply the client cannot read shows up as a failed op
	}))
	if err != nil {
		return err
	}
	c := newClient(wk.ctx, noop.base)
	d := make([]time.Duration, wk.e.prof.probeOps*5)
	ok := true
	for i := range d {
		t0 := time.Now()
		_, good := c.send(http.MethodGet, "/neighbors?v=1", nil)
		d[i] = time.Since(t0)
		ok = ok && good
	}
	c.close()
	if err := noop.stop(); err != nil {
		return err
	}
	if !ok {
		return errors.New("trace: the no-op server failed a request")
	}
	wk.m.set("bench.client_us", usec(medianOf(d)))
	return nil
}

// servingCounters sums the per-route error counters of a /stats reply
// and reads the shed counter (absent without admission control).
func servingCounters(body []byte) (errs, shed float64, err error) {
	var st struct {
		Serving struct {
			Shed      float64 `json:"shed"`
			Endpoints map[string]struct {
				Errors float64 `json:"errors"`
			} `json:"endpoints"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, 0, fmt.Errorf("trace: parsing /stats: %w", err)
	}
	for _, ep := range st.Serving.Endpoints {
		errs += ep.Errors
	}
	return errs, st.Serving.Shed, nil
}

func dirBytes(dir, suffix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), suffix) {
			info, err := de.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// ---- wal ----

func (wk *walk) walPhase() error {
	p := wk.e.prof
	ref := newRefGraph(wk.nodes, graphEdges(wk.g))
	rng := streamRNG(wk.e.seed, 70)
	l, err := openWAL(filepath.Join(wk.dir, "always-wal"), true)
	if err != nil {
		return err
	}
	wk.deferClose(func() error { return closeWAL(l) })
	d, err := wk.repeat("wal.append_always", max(p.probeOps/4, 3), func() error {
		_, err := appendWAL(l, encodeWALBatch(ref.nextUpdate(rng)))
		return err
	})
	if err != nil {
		return err
	}
	wk.m.set("wal.append_always_us", usec(d))
	payload, err := artifactBytes(wk.art)
	if err != nil {
		return err
	}
	// A checkpoint at or below the committed one is a no-op, so each
	// repetition covers one more record.
	var cps []time.Duration
	for i := 0; i < 3; i++ {
		lsn, err := appendWAL(l, encodeWALBatch(ref.nextUpdate(rng)))
		if err != nil {
			return err
		}
		d, err := wk.tr.time("wal.checkpoint", -1, func() error { return checkpointWAL(l, lsn, payload) })
		if err != nil {
			return err
		}
		cps = append(cps, d)
	}
	wk.m.set("wal.checkpoint_ms", msec(medianOf(cps)))
	return nil
}

// ---- fed ----

func (wk *walk) fedPhase() error {
	tr, m, p, ctx := wk.tr, wk.m, wk.e.prof, wk.ctx
	start := time.Now()
	f, err := startFederation(ctx, wk.g, wk.cfg, wk.dir)
	if err != nil {
		return err
	}
	wk.deferClose(f.stop)
	tr.add("slug.summarize_sharded", -1, start, start.Add(f.summarizeTook))
	tr.add("slug.split", -1, start.Add(f.summarizeTook), start.Add(f.summarizeTook+f.splitTook))
	m.set("slug.summarize_sharded_s", f.summarizeTook.Seconds())
	m.set("slug.split_ms", msec(f.splitTook))

	// One hop: 64 shard-local ids through the client, and the same ids
	// straight into that shard's engine.
	rng := streamRNG(wk.e.seed, 80)
	var hops, overheads []time.Duration
	for i := 0; i < p.probeOps/2; i++ {
		s := i % len(f.engines)
		size, _, _ := engineSizes(f.engines[s])
		ids := make([]int32, batchIDs)
		for j := range ids {
			ids[j] = int32(rng.Intn(size))
		}
		hop, err := tr.time("fed.neighbors_local", -1, func() error {
			_, err := f.coord.neighborsLocal(ctx, s, ids)
			return err
		})
		if err != nil {
			return err
		}
		local, _ := tr.time("model.shard_batch", -1, func() error { engineBatch(f.engines[s], ids); return nil })
		hops, overheads = append(hops, hop), append(overheads, hop-local)
	}
	m.set("fed.neighbors_local_us", usec(medianOf(hops)))
	m.set("fed.hop_overhead_us", usec(medianOf(overheads)))

	// The coordinator's own copy of the HTTP surface, with no socket in
	// front of it (its shard calls still cross loopback).
	z := newZipf(wk.nodes, 1.0, streamRNG(wk.e.seed, 99))
	gen := &opGen{rng: rng, z: z}
	rec := newRecorder()
	h := f.coord.handler()
	for _, probe := range []struct {
		kind   opKind
		metric string
	}{{opPoint, "fed.coord_handler_point_us"}, {opBatchJSON, "fed.coord_handler_batch_us"}} {
		d, err := wk.repeat("fed.coord_handler."+opKindNames[probe.kind], p.probeOps/2, func() error {
			o := gen.make(probe.kind)
			return serveDirect(ctx, h, rec, &o)
		})
		if err != nil {
			return err
		}
		m.set(probe.metric, usec(d))
	}

	var fedRanks []float64
	d, err := tr.time("fed.pagerank_gather", -1, func() (err error) {
		fedRanks, err = f.coord.pageRank(ctx, prDamping, prIters)
		return err
	})
	if err != nil {
		return err
	}
	m.set("fed.pagerank_gather_ms", msec(d))
	if err := sameVector(pageRankRaw(wk.g, prDamping, prIters), fedRanks, 1e-12); err != nil {
		return fmt.Errorf("trace: federated PageRank: %w", err)
	}
	retries, hedges, open := f.coord.resilience()
	m.set("fed.retries", float64(retries))
	m.set("fed.hedges", float64(hedges))
	m.set("fed.breaker_opens", float64(open))
	return nil
}
