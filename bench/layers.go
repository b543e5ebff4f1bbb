package main

// Every call the benchmark makes into the repository's layers lives in
// this file, each as a small adapter that takes and returns plain Go
// values. Nothing else under bench/ imports a repro/... package
// (bench_test.go pins that), so a refactor that moves an API has one
// file to touch. The adapters add no timing: callers wrap them in spans
// or stopwatches. pkg/slug and the HTTP surface are preferred; the
// internal packages are called only where a layer has no public door
// (core.Stats, wal.Log, the engine's query contexts, fed, loadgen).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/pkg/slug"
)

type (
	Graph     = graph.Graph
	Artifact  = slug.Artifact
	Engine    = model.CompiledSummary
	Overlay   = model.DeltaOverlay
	Updatable = slug.Updatable
	Sharded   = slug.Sharded
	Manifest  = slug.Manifest
)

// ---- graph ----

type hierShape struct {
	levels, branching, leafSize int
	density                     []float64
}

func genHier(s hierShape, seed int64) *Graph {
	return graph.HierCommunity(graph.HierParams{
		Levels: s.levels, Branching: s.branching, LeafSize: s.leafSize, Density: s.density,
	}, seed)
}

func genBA(n, k int, seed int64) *Graph { return graph.BarabasiAlbert(n, k, seed) }

func partitionCut(g *Graph, k int) (int, error) {
	p, err := graph.PartitionGraph(g, k)
	if err != nil {
		return 0, err
	}
	return p.EdgeCut(), nil
}

func graphsEqual(a, b *Graph) bool { return graph.Equal(a, b) }

func graphSize(g *Graph) (nodes int, edges int64) { return g.NumNodes(), g.NumEdges() }

func graphEdges(g *Graph) [][2]int32 { return g.Edges() }

// truth is the graph a server must be serving.
type truth struct {
	n         int
	neighbors func(v int32) []int32
	hasEdge   func(u, v int32) bool
}

func graphTruth(g *Graph) truth {
	return truth{n: g.NumNodes(), neighbors: g.Neighbors, hasEdge: g.HasEdge}
}

// graphFromAdjacency rebuilds a graph from sorted neighbor lists.
func graphFromAdjacency(adj [][]int32) *Graph {
	b := graph.NewBuilder(len(adj))
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if int32(u) < v {
				b.AddEdge(int32(u), v)
			}
		}
	}
	return b.Build()
}

// ---- slug / core: building ----

// buildCfg is the one set of build options a workload uses everywhere:
// the first build, the timed repetitions and every compaction rebuild.
type buildCfg struct {
	iterations int
	workers    int
	seed       int64
}

func (c buildCfg) options() []slug.Option {
	return []slug.Option{slug.WithIterations(c.iterations), slug.WithWorkers(c.workers), slug.WithSeed(c.seed)}
}

// buildQueryable is the timed operation of the build workloads: graph
// in, queryable artifact out.
func buildQueryable(ctx context.Context, g *Graph, c buildCfg) (Artifact, *Engine, error) {
	art, err := slug.Get("slugger").Summarize(ctx, g, c.options()...)
	if err != nil {
		return nil, nil, err
	}
	cs, err := art.Queryable()
	return art, cs, err
}

// coreRun is what a build reports when driven through core directly:
// the instant every merging iteration ended, and core's own counters.
type coreRun struct {
	iterEnd         []time.Time
	merges          int
	costBeforePrune int64
	finalCost       int64
}

// summarizeCore runs the same build as buildQueryable's first half, but
// through core.SummarizeCtx so core.Stats and the per-iteration
// callback are visible. The artifact is wrapped exactly as pkg/slug
// wraps it, so its bytes equal the public path's.
func summarizeCore(ctx context.Context, g *Graph, c buildCfg) (Artifact, coreRun, error) {
	var run coreRun
	sum, st, err := core.SummarizeCtx(ctx, g, core.Config{
		T: c.iterations, Seed: c.seed, Workers: c.workers,
		OnIteration: func(int, int64) { run.iterEnd = append(run.iterEnd, time.Now()) },
	})
	if err != nil {
		return nil, run, err
	}
	run.merges, run.costBeforePrune, run.finalCost = st.Merges, st.CostBeforePrune, st.FinalCost
	return slug.NewHierarchical("slugger", sum), run, nil
}

func compileArtifact(a Artifact) (*Engine, error) { return a.Queryable() }

func artifactBytes(a Artifact) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func validateArtifact(a Artifact, g *Graph) error { return slug.Validate(a, g) }

func artifactCost(a Artifact) int64 { return a.Cost() }

// artifactShape reports the hierarchy's height and average leaf depth
// (0, 0 for an artifact that is not hierarchical).
func artifactShape(a Artifact) (height int, avgLeafDepth float64) {
	if h, ok := a.(*slug.Hierarchical); ok {
		return h.Summary.MaxHeight(), h.Summary.AvgLeafDepth()
	}
	return 0, 0
}

// ---- slug: persistence ----

func saveV1(path string, a Artifact) error { return slug.Save(path, a) }
func saveV2(path string, a Artifact) error { return slug.SaveCompiled(path, a) }

func loadV1(path string) (*Engine, error) {
	a, err := slug.Load(path)
	if err != nil {
		return nil, err
	}
	return a.Queryable()
}

// openMappedEngine maps a v2 file and returns its engine and the
// function that releases the mapping.
func openMappedEngine(path string) (*Engine, func() error, error) {
	m, err := slug.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	cs, err := m.Queryable()
	if err != nil {
		return nil, nil, errors.Join(err, m.Close())
	}
	return cs, m.Close, nil
}

// bootOnce is the restart a serving process pays: map the v2 file, get
// the engine, answer one query, unmap.
func bootOnce(path string) error {
	m, err := slug.OpenMapped(path)
	if err != nil {
		return err
	}
	cs, err := m.Queryable()
	if err != nil {
		return errors.Join(err, m.Close())
	}
	_ = cs.NeighborsOf(0)
	return m.Close()
}

// readAligned loads a v2 file into an 8-byte-aligned buffer, the form
// model.FromMapped validates.
func readAligned(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	buf := model.AlignedBuffer(len(raw))
	copy(buf, raw)
	return buf, nil
}

func fromMapped(data []byte) error {
	_, _, err := model.FromMapped(data)
	return err
}

func decodeEngine(cs *Engine) *Graph { return cs.Decode() }

func engineSizes(cs *Engine) (nodes, supernodes, superedges int) {
	return cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges()
}

// ---- model: the compiled engine ----

func engineNeighbors(cs *Engine, vs []int32) (entries int) {
	q := cs.AcquireCtx()
	for _, v := range vs {
		entries += len(q.NeighborsOf(v))
	}
	cs.ReleaseCtx(q)
	return entries
}

func engineHasEdge(cs *Engine, pairs [][2]int32) (hits int) {
	q := cs.AcquireCtx()
	for _, p := range pairs {
		if q.HasEdge(p[0], p[1]) {
			hits++
		}
	}
	cs.ReleaseCtx(q)
	return hits
}

func engineBatch(cs *Engine, ids []int32) (entries int) {
	cs.NeighborsBatch(ids, func(_ int32, nbrs []int32) { entries += len(nbrs) })
	return entries
}

// engineSweep asks for every vertex's neighbors `rounds` times on one
// context: the engine's share of a PageRank run.
func engineSweep(cs *Engine, rounds int) (entries int) {
	q := cs.AcquireCtx()
	n := int32(cs.NumNodes())
	for r := 0; r < rounds; r++ {
		for v := int32(0); v < n; v++ {
			entries += len(q.NeighborsOf(v))
		}
	}
	cs.ReleaseCtx(q)
	return entries
}

func toModelUpdates(ups []edgeUpdate) []model.EdgeUpdate {
	out := make([]model.EdgeUpdate, len(ups))
	for i, e := range ups {
		out[i] = model.EdgeUpdate{U: e.u, V: e.v, Delete: e.del}
	}
	return out
}

func newOverlay(cs *Engine) *Overlay { return model.NewOverlay(cs) }

func overlayApply(o *Overlay, ups []edgeUpdate) (*Overlay, error) {
	next, _, err := o.Apply(toModelUpdates(ups))
	return next, err
}

func overlayLen(o *Overlay) int { return o.Len() }

func overlayNeighbors(o *Overlay, vs []int32) (entries int) {
	q := o.AcquireCtx()
	for _, v := range vs {
		entries += len(q.NeighborsOf(v))
	}
	o.ReleaseCtx(q)
	return entries
}

// viewQuery replays a read op's vertices through the served view, the
// work a handler does below its parsing and encoding.
func viewQuery(o *Overlay, p *op) (entries int) {
	switch p.kind {
	case opPoint:
		o.NeighborsBatch([]int32{p.v}, func(_ int32, nbrs []int32) { entries += len(nbrs) })
	case opHasEdge:
		if o.HasEdge(p.u, p.v) {
			entries = 1
		}
	default:
		o.NeighborsBatch(p.ids, func(_ int32, nbrs []int32) { entries += len(nbrs) })
	}
	return entries
}

// ---- algos ----

func pageRankCompiled(cs *Engine, d float64, iters int) []float64 {
	src := algos.OnCompiled(cs)
	defer src.Release()
	return algos.PageRank(src, d, iters)
}

func pageRankRaw(g *Graph, d float64, iters int) []float64 {
	return algos.PageRank(algos.Raw(g), d, iters)
}

// ---- slug: live, durable artifacts ----

const walSyncInterval = 50 * time.Millisecond

// newUpdatable makes art live. With walDir it is durable (interval
// fsync); without, volatile. The build options ride along so every
// compaction rebuilds the way the first build did.
func newUpdatable(art Artifact, c buildCfg, threshold int, walDir string) (Updatable, error) {
	opts := append(c.options(), slug.WithCompactionThreshold(threshold))
	if walDir != "" {
		opts = append(opts, slug.WithDurability(walDir, slug.SyncInterval(walSyncInterval)))
	}
	return slug.NewUpdatable(art, opts...)
}

func reopenUpdatable(walDir string, c buildCfg, threshold int) (Updatable, error) {
	opts := append(c.options(), slug.WithCompactionThreshold(threshold))
	return slug.OpenUpdatable(walDir, slug.SyncInterval(walSyncInterval), opts...)
}

type liveCounters struct {
	lockHoldNs, lockHoldMaxNs int64
	compactions               uint64
	walAppends, walSyncs      uint64
	recoveredRecords          int
}

func readLiveCounters(up Updatable) liveCounters {
	ls, d := up.Live().Stats(), up.Durability()
	return liveCounters{
		lockHoldNs: ls.LockHoldNs, lockHoldMaxNs: ls.LockHoldMaxNs, compactions: ls.Compactions,
		walAppends: d.Appends, walSyncs: d.Syncs, recoveredRecords: d.RecoveredRecords,
	}
}

// quiesce waits until a freshly made durable artifact is at rest: no
// compaction in flight, and the checkpoint of the last compaction
// written. Live.Quiesce alone returns when the base swap commits, which
// is before that checkpoint is persisted, so a Close right after it
// races the checkpoint and the next open replays a longer log. A fresh
// WAL directory holds one seed checkpoint; every compaction adds one.
func quiesce(up Updatable) {
	up.Live().Quiesce()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		d := up.Durability()
		if !d.Enabled || d.Checkpoints+d.CheckpointFailures >= 1+up.Live().Stats().Compactions {
			return
		}
	}
}

func closeUpdatable(up Updatable) error   { return up.Close() }
func compactUpdatable(up Updatable) error { return up.Compact() }
func decodeUpdatable(up Updatable) *Graph { return up.Decode() }

// ---- wal ----

type walLog = wal.Log

func openWAL(dir string, always bool) (*walLog, error) {
	policy := wal.Every(walSyncInterval)
	if always {
		policy = wal.Always()
	}
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: policy})
	return l, err
}

func appendWAL(l *walLog, payload []byte) (lsn uint64, err error) { return l.Append(payload) }

func syncWAL(l *walLog) error  { return l.Sync() }
func closeWAL(l *walLog) error { return l.Close() }

func encodeWALBatch(ups []edgeUpdate) []byte { return model.EncodeUpdates(toModelUpdates(ups)) }

func checkpointWAL(l *walLog, lsn uint64, payload []byte) error {
	return l.Checkpoint(lsn, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// ---- serve ----

func staticHandler(cs *Engine) http.Handler { return serve.New(cs).Handler() }

func liveHandler(up Updatable) http.Handler { return serve.NewLive(up.Live()).Handler() }

// ---- slug / serve / fed: the federation ----

func summarizeSharded(ctx context.Context, g *Graph, k int, c buildCfg) (*Sharded, error) {
	return slug.SummarizeSharded(ctx, g, k, slug.WithIterations(c.iterations), slug.WithSeed(c.seed))
}

func splitSharded(sh *Sharded, dir string) (*Manifest, error) { return sh.Split(dir, "v2") }

func shardedCost(sh *Sharded) int64 { return sh.Cost() }

// shardHandler mounts shard s from its split file, digest-checked
// against the manifest, as cmd/serve -shard-role does.
func shardHandler(man *Manifest, dir string, s int) (h http.Handler, cs *Engine, file string, err error) {
	art, err := man.OpenShard(dir, s)
	if err != nil {
		return nil, nil, "", err
	}
	if cs, err = art.Queryable(); err != nil {
		return nil, nil, "", err
	}
	srv := serve.NewShard(cs, serve.ShardInfo{
		Shard: s, Shards: man.NumShards(), Epoch: man.Epoch, Nodes: cs.NumNodes(),
		Version: slug.EpochVersion(man.Epoch), Algorithm: man.Algorithm,
	})
	return srv.Handler(), cs, filepath.Join(dir, man.Shards[s].File), nil
}

// coordinator is a fed.Coordinator with its client, on the default
// fed.Config (no hedging).
type coordinator struct {
	co     *fed.Coordinator
	client *fed.Client
}

func newCoordinator(ctx context.Context, sh *Sharded, shardURLs []string) (*coordinator, error) {
	urls := make([][]string, len(shardURLs))
	for i, u := range shardURLs {
		urls[i] = []string{u}
	}
	client, err := fed.NewClient(&fed.Peers{Epoch: sh.Epoch(), Shards: urls}, fed.Config{})
	if err != nil {
		return nil, err
	}
	co, err := fed.NewCoordinator(sh, client)
	if err != nil {
		return nil, err
	}
	if err := co.Verify(ctx); err != nil {
		return nil, err
	}
	return &coordinator{co: co, client: client}, nil
}

func (c *coordinator) handler() http.Handler { return c.co.Handler() }

func (c *coordinator) neighborsLocal(ctx context.Context, shard int, ids []int32) (entries int, err error) {
	lists, err := c.client.NeighborsLocal(ctx, shard, ids)
	for _, l := range lists {
		entries += len(l)
	}
	return entries, err
}

func (c *coordinator) pageRank(ctx context.Context, d float64, iters int) ([]float64, error) {
	return c.co.PageRankVector(ctx, d, iters)
}

// resilience reports the client's retry and hedge counters and how many
// endpoints have a breaker that is not closed.
func (c *coordinator) resilience() (retries, hedges uint64, breakersOpen int) {
	st := c.client.Snapshot()
	for _, ep := range st.Shards {
		if ep.Breaker != "closed" {
			breakersOpen++
		}
	}
	return st.Retries, st.Hedges, breakersOpen
}

// ---- loadgen ----

type pacedReport struct {
	p50us, p99us, schedLagMaxUs float64
	requests, errors            uint64
}

// pacedRun offers the serve_read mix open-loop at a fixed rate: the
// repository's own load generator, kept as a per-layer number only.
func pacedRun(ctx context.Context, baseURL string, nodes int, seed uint64, rate float64, d time.Duration) (pacedReport, error) {
	var mix loadgen.Mix
	mix[loadgen.OpNeighbors], mix[loadgen.OpHasEdge] = 0.70, 0.15
	mix[loadgen.OpBatchBinary], mix[loadgen.OpBatchJSON] = 0.10, 0.05
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL: baseURL, Rate: rate, Duration: d, Workers: 2, Seed: seed,
		NumNodes: nodes, Mix: mix, ZipfS: 1.0, BatchSize: batchIDs,
	})
	if err != nil {
		return pacedReport{}, err
	}
	return pacedReport{
		p50us: rep.Overall.P50Us, p99us: rep.Overall.P99Us, schedLagMaxUs: rep.MaxSchedLagUs,
		requests: rep.Requests, errors: rep.Errors,
	}, nil
}
