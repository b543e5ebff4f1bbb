package slug

// Updatable artifacts: the live-maintenance face of the public API.
// NewUpdatable wraps any finished Artifact in a model.Live — edge
// insertions and deletions land in a delta overlay on the compiled
// base without recompiling, readers stay lock-free via atomic snapshot
// swap, and once the overlay reaches WithCompactionThreshold a
// background re-summarize (with the artifact's own algorithm and the
// given build options) swaps in a fresh base.

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
)

// Updatable is an Artifact whose represented graph can change after the
// build: a living summary rather than a frozen snapshot. All Artifact
// methods observe the current live state. Queries against a consistent
// point-in-time view go through View (the Queryable of the Artifact
// interface returns only the compiled base, without overlay
// corrections).
type Updatable interface {
	Artifact
	// ApplyUpdates applies a batch of edge insertions/deletions to the
	// live graph and returns the number of effective updates (inserting
	// a present edge or deleting an absent one is a no-op). The vertex
	// set is fixed at build time; out-of-range endpoints reject the
	// batch.
	ApplyUpdates(ups []model.EdgeUpdate) (int, error)
	// View returns the current immutable snapshot for querying:
	// NeighborsOf, HasEdge, NeighborsBatch and Decode all see the live
	// graph. Lock-free; the snapshot stays consistent however long it
	// is held.
	View() *model.DeltaOverlay
	// Compact synchronously re-summarizes the live graph with the
	// artifact's algorithm and swaps in the fresh base, emptying the
	// overlay.
	Compact() error
	// Live exposes the underlying maintenance container (for serving
	// front-ends that need stats and snapshots).
	Live() *model.Live
	// Close releases the resources behind the artifact — for a durable
	// one (WithDurability) it flushes and closes the write-ahead log, so
	// updates acknowledged under an interval fsync policy are on disk
	// before Close returns. The artifact must not be updated afterwards;
	// views already held stay valid. Idempotent.
	Close() error
	// Durability reports the persistence state: whether a write-ahead
	// log is attached, what it recovered at open, and its counters.
	Durability() DurabilityStats
}

// liveArtifact implements Updatable over a model.Live whose rebuild
// re-summarizes through the algorithm registry. The Live's snapshot is
// its only summary state: cost, bytes and checkpoints all come from the
// compiled base the snapshot corrects.
type liveArtifact struct {
	algo string
	live *model.Live

	// Durable state (nil log = volatile artifact), under mu.
	mu          sync.Mutex
	log         *wal.Log
	closed      bool
	recRecords  int  // records replayed at open
	recCkpt     bool // a checkpoint seeded the base at open
	recTrunc    bool // recovery truncated a torn tail
	ckptFails   uint64
	lastCkptErr error
}

// NewUpdatable makes an artifact's summary live: the result absorbs
// edge updates through a delta overlay and re-summarizes in the
// background once the overlay reaches WithCompactionThreshold (0
// disables auto-compaction). The options are also replayed on every
// compaction rebuild, so WithSeed, WithIterations etc. keep applying —
// given the same options, the same update stream always yields the
// same artifact. The producing algorithm must be registered (it is
// what compaction rebuilds with).
func NewUpdatable(art Artifact, opts ...Option) (Updatable, error) {
	cfg := resolve(opts)
	if cfg.walDir != "" {
		return openDurable(art, cfg, opts)
	}
	if art == nil {
		return nil, fmt.Errorf("slug: NewUpdatable needs an artifact (only WithDurability can recover one from disk)")
	}
	return newLiveArtifact(art, cfg, opts)
}

// newLiveArtifact builds the volatile core shared by the durable and
// non-durable paths: registry-checked rebuild wiring over a model.Live.
func newLiveArtifact(art Artifact, cfg buildConfig, opts []Option) (*liveArtifact, error) {
	if _, ok := Lookup(art.Algorithm()); !ok {
		return nil, fmt.Errorf("slug: cannot make %q artifact updatable: algorithm not registered (compaction needs it)", art.Algorithm())
	}
	cs, err := art.Queryable()
	if err != nil {
		return nil, err
	}
	la := &liveArtifact{algo: art.Algorithm(), live: model.NewLive(cs)}
	la.live.SetCompactionThreshold(cfg.compaction)
	la.live.SetRebuild(func(g *graph.Graph) (*model.CompiledSummary, error) {
		fresh, err := Get(la.algo).Summarize(context.Background(), g, opts...)
		if err != nil {
			return nil, err
		}
		return fresh.Queryable()
	})
	return la, nil
}

func (la *liveArtifact) Algorithm() string { return la.algo }

// Cost returns the live encoding cost: the compiled base's cost plus
// one correction edge per overlay entry (exactly what serializing the
// overlay as signed edges would add).
func (la *liveArtifact) Cost() int64 {
	v := la.live.View()
	return v.Base().Cost() + int64(v.Len())
}

// Decode materializes the current live graph.
func (la *liveArtifact) Decode() *graph.Graph { return la.live.View().Decode() }

// Queryable returns the current compiled base — without overlay
// corrections. Live queries should go through View; this accessor
// exists to satisfy the Artifact interface (and equals View().Base()).
func (la *liveArtifact) Queryable() (*model.CompiledSummary, error) {
	return la.live.View().Base(), nil
}

// WriteTo serializes the live artifact. A non-empty overlay is first
// compacted (synchronously, waiting out any in-flight background
// compaction), so the written artifact is a self-contained summary of
// the live graph; with fixed options the bytes are a deterministic
// function of the build inputs and the update stream.
func (la *liveArtifact) WriteTo(w io.Writer) (int64, error) {
	base, err := la.settled()
	if err != nil {
		return 0, err
	}
	return writeEnvelope(w, la.algo, base.ToSummary())
}

// settled waits out a background compaction, compacts what the overlay
// then holds, and returns the compiled base, which represents the live
// graph by itself: what WriteTo and WriteCompiledTo serialize.
func (la *liveArtifact) settled() (*model.CompiledSummary, error) {
	if err := la.live.Compact(); err != nil {
		return nil, fmt.Errorf("slug: compacting before serialization: %w", err)
	}
	return la.live.View().Base(), nil
}

func (la *liveArtifact) ApplyUpdates(ups []model.EdgeUpdate) (int, error) {
	return la.live.ApplyUpdates(ups)
}

func (la *liveArtifact) View() *model.DeltaOverlay { return la.live.View() }

func (la *liveArtifact) Compact() error { return la.live.Compact() }

func (la *liveArtifact) Live() *model.Live { return la.live }

// Close flushes and closes the write-ahead log (no-op for a volatile
// artifact). In-flight background compactions are waited out first so
// their checkpoint lands in the log rather than racing its shutdown.
func (la *liveArtifact) Close() error {
	la.mu.Lock()
	log, closed := la.log, la.closed
	la.closed = true
	la.mu.Unlock()
	if log == nil || closed {
		return nil
	}
	la.live.Quiesce()
	return log.Close()
}

// Durability reports the artifact's persistence state.
func (la *liveArtifact) Durability() DurabilityStats {
	la.mu.Lock()
	defer la.mu.Unlock()
	if la.log == nil {
		return DurabilityStats{}
	}
	ws := la.log.Stats()
	ds := DurabilityStats{
		Enabled:             true,
		Dir:                 ws.Dir,
		Policy:              ws.Policy,
		LastLSN:             ws.NextLSN - 1,
		CheckpointLSN:       ws.CheckpointLSN,
		Segments:            ws.Segments,
		Appends:             ws.Appends,
		Syncs:               ws.Syncs,
		Checkpoints:         ws.Checkpoints,
		RecoveredRecords:    la.recRecords,
		RecoveredCheckpoint: la.recCkpt,
		RecoveryTruncated:   la.recTrunc,
		CheckpointFailures:  la.ckptFails,
	}
	if la.lastCkptErr != nil {
		ds.LastCheckpointError = la.lastCkptErr.Error()
	}
	return ds
}
