package slug

// Durable updatable artifacts. WithDurability attaches a write-ahead
// log (internal/wal) to the live-update path with append-then-publish
// ordering: an update batch reaches the log — under the configured
// fsync policy — before any reader can observe it, so every
// acknowledged POST /update (or ApplyUpdates call) survives a crash.
// Compactions checkpoint the rebuilt base artifact into the same
// directory and retire the log segments it supersedes, keeping both
// recovery time and disk usage proportional to the update rate since
// the last compaction, not to history. Reopening the directory
// reconstructs the exact acknowledged state: checkpoint first, then
// replay of every logged batch after it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs. The zero value is
// SyncAlways.
type SyncPolicy struct{ p wal.Policy }

// SyncAlways fsyncs before every update batch is acknowledged: no
// acknowledged write is ever lost, at the price of one fsync per batch.
func SyncAlways() SyncPolicy { return SyncPolicy{wal.Always()} }

// SyncInterval fsyncs on a background cadence (d <= 0 uses the default,
// 50ms): appends cost a buffered write, and a crash loses at most the
// last interval's acknowledged batches.
func SyncInterval(d time.Duration) SyncPolicy {
	if d <= 0 {
		d = wal.DefaultSyncInterval
	}
	return SyncPolicy{wal.Every(d)}
}

// SyncNever leaves flushing to the OS: fastest, and a crash may lose
// any acknowledged batch still in the page cache. Suitable only where
// the update stream can be replayed from elsewhere.
func SyncNever() SyncPolicy { return SyncPolicy{wal.Never()} }

// ParseSyncPolicy parses "always", "never"/"off", "interval", or
// "interval=<duration>" (e.g. "interval=100ms") — the syntax of the
// serve command's -fsync flag.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	p, err := wal.ParsePolicy(s)
	if err != nil {
		return SyncPolicy{}, err
	}
	return SyncPolicy{p}, nil
}

// String formats the policy in ParseSyncPolicy's syntax.
func (sp SyncPolicy) String() string { return sp.p.String() }

// DurabilityStats describes an updatable artifact's persistence state.
// The zero value (Enabled false) is a volatile artifact.
type DurabilityStats struct {
	Enabled       bool
	Dir           string
	Policy        string
	LastLSN       uint64 // last appended batch, 0 = none yet
	CheckpointLSN uint64 // last batch covered by the checkpointed base
	Segments      int    // live log segment files
	Appends       uint64
	Syncs         uint64
	Checkpoints   uint64

	RecoveredRecords    int  // update batches replayed at open
	RecoveredCheckpoint bool // the base was seeded from an on-disk checkpoint
	RecoveryTruncated   bool // a torn tail was truncated at open

	CheckpointFailures  uint64 // compaction checkpoints that failed to persist
	LastCheckpointError string // most recent such failure, "" after success
}

// OpenUpdatable reopens a durable updatable artifact from its WAL
// directory alone: the base comes from the newest checkpoint and the
// logged batches after it are replayed, reconstructing the exact state
// whose updates were acknowledged before the last shutdown or crash.
// The directory must have been populated by a prior NewUpdatable with
// WithDurability (which seeds the initial checkpoint). The producing
// algorithm must be registered, as always.
func OpenUpdatable(dir string, policy SyncPolicy, opts ...Option) (Updatable, error) {
	return NewUpdatable(nil, append(append([]Option{}, opts...), WithDurability(dir, policy))...)
}

// openDurable implements the WithDurability path of NewUpdatable:
// recover, replay, seed the checkpoint if the directory is fresh, and
// route all future updates through the log.
func openDurable(art Artifact, cfg buildConfig, opts []Option) (Updatable, error) {
	log, rec, err := wal.Open(wal.Options{Dir: cfg.walDir, Policy: cfg.walPolicy, FS: cfg.walFS})
	if err != nil {
		return nil, fmt.Errorf("slug: opening WAL: %w", err)
	}
	fail := func(err error) (Updatable, error) {
		return nil, errors.Join(err, log.Close())
	}

	// The on-disk checkpoint is authoritative: it is the base the logged
	// batches were acknowledged against. A caller-passed artifact only
	// seeds a directory that has no checkpoint yet.
	base := art
	if rec.HasCheckpoint {
		ck, err := ReadFrom(bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return fail(fmt.Errorf("slug: decoding checkpointed artifact: %w", err))
		}
		base = ck
	} else if len(rec.Records) > 0 && base == nil {
		return fail(fmt.Errorf("slug: WAL at %s has %d update batches but no checkpoint and no seed artifact", cfg.walDir, len(rec.Records)))
	}
	if base == nil {
		return fail(fmt.Errorf("slug: durability dir %s is empty; pass the initial artifact to NewUpdatable", cfg.walDir))
	}

	la, err := newLiveArtifact(base, cfg, opts)
	if err != nil {
		return fail(err)
	}
	la.recCkpt = rec.HasCheckpoint
	la.recTrunc = rec.Truncated
	la.recRecords = len(rec.Records)
	seed := la.live.View().Base() // before replay can start a compaction

	// Replay before installing the sink, so recovered batches are not
	// appended a second time. Replay is idempotent (updates are absolute
	// set operations), so a checkpoint that lags the logged suffix — the
	// normal state right after a compaction — converges exactly.
	floor := rec.CheckpointLSN
	for _, r := range rec.Records {
		ups, err := model.DecodeUpdates(r.Payload)
		if err != nil {
			return fail(fmt.Errorf("slug: WAL record %d: %w", r.LSN, err))
		}
		if _, err := la.live.ApplyUpdates(ups); err != nil {
			return fail(fmt.Errorf("slug: replaying WAL record %d: %w", r.LSN, err))
		}
		floor = r.LSN
	}

	// A directory without a checkpoint (fresh, or seeded over bare
	// records) gets one now, so OpenUpdatable can reconstruct the base
	// without the caller's artifact next time. Tagged at the checkpoint
	// floor, not the replay floor: the serialized base does not contain
	// the replayed batches, which must stay replayable.
	if !rec.HasCheckpoint {
		if err := writeCheckpoint(log, la.algo, seed, rec.CheckpointLSN); err != nil {
			return fail(fmt.Errorf("slug: seeding initial checkpoint: %w", err))
		}
	}

	la.log = log
	la.live.SetDurability(model.Durability{
		Append: func(ups []model.EdgeUpdate) (uint64, error) {
			return log.Append(model.EncodeUpdates(ups))
		},
		Checkpoint: la.checkpoint,
	}, floor)
	return la, nil
}

// checkpoint persists the base a compaction committed as the log's
// checkpoint covering every batch up to lsn, retiring the segments it
// supersedes. Invoked by Live after each committed compaction, off the
// writer lock. Failure is recorded, not fatal: the old checkpoint stays
// authoritative and recovery just replays a longer suffix.
func (la *liveArtifact) checkpoint(lsn uint64, base *model.CompiledSummary) {
	la.mu.Lock()
	log := la.log
	la.mu.Unlock()
	if log == nil {
		return
	}
	err := writeCheckpoint(log, la.algo, base, lsn)
	la.mu.Lock()
	if err != nil {
		la.ckptFails++
		la.lastCkptErr = err
	} else {
		la.lastCkptErr = nil
	}
	la.mu.Unlock()
}

// writeCheckpoint persists base as the log's checkpoint in the v2
// zero-copy compiled layout: recovery then rebuilds the serving engine
// straight from the checkpoint bytes — no decode, no recompile — so
// crash-recovery time stops growing with summary size. v1-envelope
// checkpoints from earlier versions still recover (ReadFrom dispatches
// on the magic).
func writeCheckpoint(log *wal.Log, algo string, base *model.CompiledSummary, lsn uint64) error {
	return log.Checkpoint(lsn, func(w io.Writer) error {
		_, err := writeCompiled(w, algo, base)
		return err
	})
}
