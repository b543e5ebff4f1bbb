package fed

// The federation coordinator: the data source behind the process
// clients actually talk to. It keeps a sharded build's routing half
// (id maps + boundary sidecar, as slug.OpenSplit reads them back from a
// split directory) and the compiled union of its shard hierarchies, but
// serves neighbor and edge queries from the shard servers across the
// network. It plugs into internal/serve's request pipeline as a
// serve.Backend, so the public HTTP surface (routes, validation,
// metrics, admission, encoding, the PageRank result cache) is serve's
// own:
//
//   - NeighborsBatch: scatter shard-local batches to the owning shards,
//     gather, translate to global ids, merge each vertex's boundary
//     adjacency locally (model.Routing.MergeBoundary). Answers equal
//     the single-process server's bit for bit: both are lossless.
//   - HasEdge: intra-shard pairs go to the owning shard in local ids;
//     cross-shard pairs are answered locally from the boundary CSR
//     with no network round-trip at all.
//   - Source (PageRank): the empty overlay of the compiled union,
//     multiplied on the hierarchy (model.DeltaOverlay.MulAdj) through
//     the same source a single process serving the same build uses, so
//     the ranks are bit-identical to it and need no shard.
//
// A shard failure surfaces as a *ShardError, which serve answers 503
// naming the failed shard: the caller learns which piece of the data is
// unavailable while queries touching only live shards keep answering.

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/algos"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/pkg/slug"
)

// Coordinator scatter-gathers the public query surface across a
// network shard federation.
type Coordinator struct {
	rt      *model.Routing
	union   *model.DeltaOverlay // the compiled union, what PageRank runs on
	client  *Client
	algo    string
	epoch   string
	version uint64
}

// NewCoordinator builds a coordinator from a sharded build's routing
// structure and compiled union, and a resilient client whose peer set
// must cover exactly the build's shards and be pinned to its epoch.
func NewCoordinator(sh *slug.Sharded, client *Client) (*Coordinator, error) {
	rt, err := model.NewRouting(sh.GlobalID, sh.Boundary)
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	union, err := sh.Queryable()
	if err != nil {
		return nil, fmt.Errorf("fed: %w", err)
	}
	if client.NumShards() != rt.NumShards() {
		return nil, fmt.Errorf("fed: peers cover %d shards, build has %d", client.NumShards(), rt.NumShards())
	}
	epoch := sh.Epoch()
	if client.epoch != epoch {
		return nil, fmt.Errorf("fed: peers name epoch %q, the build's is %.12s... — refusing to federate mismatched epochs", client.epoch, epoch)
	}
	return &Coordinator{
		rt:      rt,
		union:   model.NewOverlay(union),
		client:  client,
		algo:    sh.Algorithm(),
		epoch:   epoch,
		version: slug.EpochVersion(epoch),
	}, nil
}

// Version returns the content version derived from the epoch; each
// shard server stamps its own (serve.ShardVersion).
func (co *Coordinator) Version() uint64 { return co.version }

// NumNodes returns the global vertex count.
func (co *Coordinator) NumNodes() int { return co.rt.NumNodes() }

// The capabilities serve.NewServer discovers by type assertion, pinned
// at compile time so a renamed method cannot silently drop one.
var (
	_ serve.Backend       = (*Coordinator)(nil)
	_ serve.StatsReporter = (*Coordinator)(nil)
	_ serve.ReadyChecker  = (*Coordinator)(nil)
)

// View makes the coordinator a serve.Backend: the artifact is
// immutable, so the coordinator is its own (only) snapshot.
func (co *Coordinator) View() serve.View { return co }

// Handler returns the public HTTP surface: a new serve request pipeline
// (see serve.Server.Handler for the routes) over the federation.
func (co *Coordinator) Handler() http.Handler { return serve.NewServer(co).Handler() }

// Verify probes every endpoint once, at boot, and fails on the first
// shard none of whose endpoints answers /healthz with the shard's
// version: the epoch in it binds the shard count, the shard sizes and
// the partition.
func (co *Coordinator) Verify(ctx context.Context) error {
	passed := co.client.probeAll(ctx)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fed: verify: %w", err)
	}
	for s, ok := range passed {
		if !ok {
			return fmt.Errorf("fed: no endpoint of shard %d answers /healthz with the shard's version: it is down, or of another build or shard", s)
		}
	}
	return nil
}

// NeighborsBatch scatter-gathers the neighbor lists of global vertex
// ids: group by owning shard, fetch each shard's locals in parallel
// over the binary batch endpoint — the last (often only) group on the
// calling goroutine — translate and merge boundary adjacency locally,
// then visit in request order. Nothing is visited unless every shard
// answered.
func (co *Coordinator) NeighborsBatch(ctx context.Context, vs []int32, visit func(v int32, nbrs []int32)) error {
	out := make([][]int32, len(vs))
	type group struct {
		pos   []int
		local []int32
	}
	groups := make(map[int32]*group)
	for i, v := range vs {
		s := co.rt.ShardOf(v)
		g := groups[s]
		if g == nil {
			g = &group{}
			groups[s] = g
		}
		g.pos = append(g.pos, i)
		g.local = append(g.local, co.rt.LocalOf(v))
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fetch := func(s int32, g *group) {
		lists, err := co.client.NeighborsLocal(ctx, int(s), g.local)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			return
		}
		gid := co.rt.GlobalIDs(int(s))
		for k, pos := range g.pos {
			v := vs[pos]
			out[pos] = co.rt.MergeBoundary(make([]int32, 0, len(lists[k])+4), v, lists[k], gid)
		}
	}
	left := len(groups)
	for s, g := range groups {
		if left--; left == 0 {
			fetch(s, g)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fetch(s, g)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for i, nbrs := range out {
		visit(vs[i], nbrs)
	}
	return nil
}

// HasEdge answers a global edge-existence query: the owning shard's
// point query for intra-shard pairs, the local boundary CSR for
// cross-shard ones (no network).
func (co *Coordinator) HasEdge(ctx context.Context, u, v int32) (bool, error) {
	if u == v {
		return false, nil
	}
	su, sv := co.rt.ShardOf(u), co.rt.ShardOf(v)
	if su != sv {
		return co.rt.BoundaryHasEdge(u, v), nil
	}
	return co.client.HasEdgeLocal(ctx, int(su), co.rt.LocalOf(u), co.rt.LocalOf(v))
}

// Source supplies PageRank's traversal source: the compiled union, as
// the static backend of a single process supplies its summary.
func (co *Coordinator) Source() (algos.NeighborSource, func()) {
	src := algos.OnView(co.union)
	return src, src.Release
}

// PageRankVector computes the federated PageRank vector for (d, t) on
// the compiled union; it never fails, and ctx is unused. Results are
// not cached here — that layer is serve's, behind GET /pagerank.
func (co *Coordinator) PageRankVector(_ context.Context, d float64, t int) ([]float64, error) {
	src, release := co.Source()
	defer release()
	return algos.PageRank(src, d, t), nil
}

// downError is the readiness failure listing the unreachable shards.
type downError struct{ shards []int }

func (e *downError) Error() string { return fmt.Sprintf("degraded: shards %v unreachable", e.shards) }
func (e *downError) ErrorFields() map[string]any {
	return map[string]any{"down_shards": e.shards}
}

// Ready reports the federation not ready while any shard has no
// endpoint with a closed breaker; GET /readyz then answers 503 listing
// "down_shards".
func (co *Coordinator) Ready() error {
	var down []int
	for s := 0; s < co.rt.NumShards(); s++ {
		if !co.client.Healthy(s) {
			down = append(down, s)
		}
	}
	if len(down) > 0 {
		return &downError{down}
	}
	return nil
}

// ReportStats adds the federation topology and the client's resilience
// state to GET /stats.
func (co *Coordinator) ReportStats(stats map[string]any) {
	stats["federated"] = true
	stats["shards"] = co.rt.NumShards()
	stats["boundary_edges"] = co.rt.NumBoundaryEdges()
	stats["epoch"] = co.epoch
	stats["version"] = co.version
	stats["client"] = co.client.Snapshot()
	if co.algo != "" {
		stats["algorithm"] = co.algo
	}
}
