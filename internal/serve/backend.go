package serve

// Backends: where a Server's answers come from. The request pipeline
// (routing, validation, admission, metrics, encoding, the PageRank
// cache) is written once against the interfaces below; a data source —
// a compiled summary (a sharded build's included: it compiles to one),
// a live one, one shard of a network federation, or internal/fed's
// coordinator in front of remote shards — is a Backend plugged into
// NewServer.

import (
	"context"
	"errors"
	"maps"

	"repro/internal/algos"
	"repro/internal/model"
)

// View is the request-scoped query surface: one immutable snapshot of a
// served graph, which every handler answers from. The context is the
// request's; an error means the data is temporarily unavailable (a
// remote shard is down) and is answered 503 with Retry-After. If the
// error, or one it wraps, has an
//
//	ErrorFields() map[string]any
//
// method, those fields join "error" in the JSON body — how a federation
// names the failed shard. In-memory views never fail.
type View interface {
	NumNodes() int
	// Version keys the PageRank cache and is reported as
	// X-Summary-Version when non-zero: it must change whenever the
	// represented graph does (immutable views may always return 0).
	Version() uint64
	HasEdge(ctx context.Context, u, v int32) (bool, error)
	// NeighborsBatch visits the sorted neighbor list of every vertex in
	// request order. The slices are only valid during the visit; on
	// error the visits made so far are discarded by the caller.
	NeighborsBatch(ctx context.Context, vs []int32, visit func(v int32, nbrs []int32)) error
	Sourcer
}

// Sourcer supplies the traversal source whole-graph algorithms
// (PageRank) run on, with its release hook. Every backend's source is
// in memory (a federation's is its compiled union), so it cannot fail.
type Sourcer interface {
	Source() (algos.NeighborSource, func())
}

// Backend is a data source behind the request pipeline: View hands each
// request the snapshot to answer from. NewServer discovers the optional
// capabilities below once, by type assertion.
type Backend interface {
	View() View
}

// Updater is the capability behind POST /update; backends without it
// answer 405.
type Updater interface {
	ApplyUpdatesOutcome(ups []model.EdgeUpdate) (model.ApplyOutcome, error)
}

// StatsReporter lets a backend add its keys to GET /stats (model sizes,
// overlay counters, federation topology) beside the pipeline's own
// "nodes", "algorithm", "artifact" and "serving".
type StatsReporter interface {
	ReportStats(stats map[string]any)
}

// ReadyChecker lets a backend veto GET /readyz: a non-nil error turns
// the probe 503 with the error as "reason" (plus its ErrorFields, as
// for View errors).
type ReadyChecker interface {
	Ready() error
}

// withErrorFields merges the fields err contributes into body.
func withErrorFields(body map[string]any, err error) map[string]any {
	var fe interface{ ErrorFields() map[string]any }
	if errors.As(err, &fe) {
		maps.Copy(body, fe.ErrorFields())
	}
	return body
}

// overlayView adapts one overlay snapshot to View. It is pointer-shaped,
// so boxing it per request does not allocate.
type overlayView struct{ o *model.DeltaOverlay }

func (v overlayView) NumNodes() int   { return v.o.NumNodes() }
func (v overlayView) Version() uint64 { return v.o.Version() }

func (v overlayView) HasEdge(_ context.Context, a, b int32) (bool, error) {
	return v.o.HasEdge(a, b), nil
}

func (v overlayView) NeighborsBatch(_ context.Context, vs []int32, visit func(int32, []int32)) error {
	v.o.NeighborsBatch(vs, visit)
	return nil
}

func (v overlayView) Source() (algos.NeighborSource, func()) {
	src := algos.OnView(v.o)
	return src, src.Release
}

// staticBackend serves one frozen compiled summary.
type staticBackend struct{ overlayView }

func (b staticBackend) View() View { return b.overlayView }

func (b staticBackend) ReportStats(stats map[string]any) {
	base := b.o.Base()
	stats["supernodes"] = base.NumSupernodes()
	stats["superedges"] = base.NumSuperedges()
}

// shardBackend serves one shard of a network federation: a frozen
// summary in shard-local ids. Its view is unversioned; the server
// stamps the shard's version on every reply instead.
type shardBackend struct {
	staticBackend
	info ShardInfo
}

func (b *shardBackend) ReportStats(stats map[string]any) {
	b.staticBackend.ReportStats(stats)
	stats["shard_role"] = &b.info
}

// liveBackend serves the current lock-free snapshot of a live summary
// and accepts updates (ApplyUpdatesOutcome is promoted from the Live).
type liveBackend struct{ *model.Live }

func (b liveBackend) View() View { return overlayView{b.Live.View()} }

var errCompacting = errors.New("compacting: background re-summarize in flight")

func (b liveBackend) Ready() error {
	if b.Live.Stats().Compacting {
		return errCompacting
	}
	return nil
}

func (b liveBackend) ReportStats(stats map[string]any) {
	// One locked snapshot for both the base sizes and the overlay
	// counters — reading them separately could straddle a compaction
	// swap and report an old base with new counters.
	ls := b.Live.Stats()
	stats["supernodes"] = ls.Supernodes
	stats["superedges"] = ls.Superedges
	stats["mutable"] = true
	overlay := map[string]any{
		"insertions":          ls.Insertions,
		"deletions":           ls.Deletions,
		"version":             ls.Version,
		"applied":             ls.Applied,
		"compactions":         ls.Compactions,
		"compaction_failures": ls.CompactionFailures,
		"threshold":           ls.Threshold,
		"compacting":          ls.Compacting,
		"lock_hold_ns_total":  ls.LockHoldNs,
		"lock_hold_ns_max":    ls.LockHoldMaxNs,
	}
	if ls.LastError != "" {
		overlay["last_compaction_error"] = ls.LastError
	}
	stats["overlay"] = overlay
	if ls.Durable {
		stats["durability"] = map[string]any{
			"enabled": true,
			"lsn":     ls.DurableLSN,
		}
	}
}
