package slug

// White-box tests of the durable updatable path: these live inside the
// package so they can inject a fault filesystem under the WAL via the
// unexported withWALFS option. The acceptance bar is crash parity:
// killing the "process" at any filesystem operation and recovering must
// yield an artifact byte-identical to a never-crashed one that applied
// the same acknowledged batches.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

func durableTestGraph() *graph.Graph { return graph.Caveman(5, 8, 10, 42) }

func durableTestOpts() []Option {
	return []Option{WithIterations(4), WithSeed(7)}
}

func buildDurableTestArtifact(t testing.TB) Artifact {
	t.Helper()
	art, err := Get("slugger").Summarize(context.Background(), durableTestGraph(), durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// durableTestBatches is a deterministic mixed insert/delete stream over
// the test graph, chunked into batches (the WAL's unit of atomicity).
func durableTestBatches(g *graph.Graph) [][]model.EdgeUpdate {
	n := int32(g.NumNodes())
	rng := rand.New(rand.NewSource(11))
	const numBatches, perBatch = 8, 5
	batches := make([][]model.EdgeUpdate, 0, numBatches)
	for b := 0; b < numBatches; b++ {
		batch := make([]model.EdgeUpdate, 0, perBatch)
		for len(batch) < perBatch {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if u == v {
				continue
			}
			batch = append(batch, model.EdgeUpdate{U: u, V: v, Delete: rng.Float64() < 0.4})
		}
		batches = append(batches, batch)
	}
	return batches
}

// referenceBytes serializes, for every batch-count prefix P, the
// artifact a never-crashed volatile updatable produces after applying
// exactly P batches. refs[P] is the ground truth recovery must match.
func referenceBytes(t *testing.T, art Artifact, batches [][]model.EdgeUpdate) [][]byte {
	t.Helper()
	refs := make([][]byte, len(batches)+1)
	for p := 0; p <= len(batches); p++ {
		up, err := NewUpdatable(art, durableTestOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:p] {
			if _, err := up.ApplyUpdates(b); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := up.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		refs[p] = buf.Bytes()
	}
	return refs
}

// TestArtifactSerializationStable: WriteTo → ReadFrom → WriteTo must be
// byte-identical. Crash parity leans on this — the checkpointed base is
// read back and reserialized on the recovered side.
func TestArtifactSerializationStable(t *testing.T) {
	art := buildDurableTestArtifact(t)
	var first bytes.Buffer
	if _, err := art.WriteTo(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if _, err := back.WriteTo(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("artifact serialization is not round-trip stable")
	}
}

// TestDurableCleanRestart: close cleanly, reopen from the directory
// alone (OpenUpdatable), and get the exact same live graph and the
// exact same serialized artifact as the uninterrupted run.
func TestDurableCleanRestart(t *testing.T) {
	art := buildDurableTestArtifact(t)
	batches := durableTestBatches(durableTestGraph())
	refs := referenceBytes(t, art, batches)
	dir := t.TempDir()

	up, err := NewUpdatable(art, append(durableTestOpts(), WithDurability(dir, SyncAlways()))...)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches {
		if _, err := up.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if err := up.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds := up.Durability()
	if !ds.Enabled || ds.CheckpointLSN == 0 {
		t.Fatalf("durability stats after compaction: %+v", ds)
	}
	// Batches that were pure no-ops never reached the log, so derive the
	// expected replay length from the log's own LSNs.
	wantReplay := int(ds.LastLSN - ds.CheckpointLSN)
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}

	re, err := OpenUpdatable(dir, SyncAlways(), durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rds := re.Durability()
	if !rds.RecoveredCheckpoint {
		t.Fatal("reopen did not recover the checkpoint")
	}
	if rds.RecoveredRecords != wantReplay {
		t.Fatalf("reopen replayed %d batches, want %d", rds.RecoveredRecords, wantReplay)
	}
	var buf bytes.Buffer
	if _, err := re.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), refs[len(batches)]) {
		t.Fatal("recovered artifact differs from the never-crashed reference")
	}
}

// durableCrashWorkload opens a durable updatable over fs and applies
// the batches, compacting after the fourth; it stops at the first
// injected failure and returns how many batches were acknowledged
// (-1: the open itself died).
func durableCrashWorkload(dir string, fs wal.FS, art Artifact, batches [][]model.EdgeUpdate) int {
	opts := append(durableTestOpts(), WithDurability(dir, SyncAlways()), withWALFS(fs))
	up, err := NewUpdatable(art, opts...)
	if err != nil {
		return -1
	}
	defer up.Close()
	for i, b := range batches {
		if _, err := up.ApplyUpdates(b); err != nil {
			return i
		}
		if i == 3 {
			// Compact succeeds even when its checkpoint write dies (the
			// checkpoint is an optimization; the log still covers the
			// state), so don't stop the workload on its error.
			up.Compact()
		}
	}
	return len(batches)
}

// TestDurableCrashParityMatrix kills the process at every filesystem
// operation of an apply/compact workload, each of faultfs.KillEvery's
// four ways (clean, torn write, power loss, power loss mid-fsync), then
// recover from the directory and require the serialized artifact to be
// byte-identical to a never-crashed server that applied the same
// acknowledged batch stream (or that stream plus the one in-flight
// batch whose log record hit the disk before the ack).
func TestDurableCrashParityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-point matrix is slow")
	}
	art := buildDurableTestArtifact(t)
	batches := durableTestBatches(durableTestGraph())
	refs := referenceBytes(t, art, batches)

	var acked int
	faultfs.KillEvery(t, 15, func(fs wal.FS, dir string) error {
		if acked = durableCrashWorkload(dir, fs, art, batches); acked != len(batches) {
			return fmt.Errorf("acked %d batches, want %d", acked, len(batches))
		}
		return nil
	}, func(name, dir string, _ error) {
		// Recover with a clean filesystem, passing the seed artifact as
		// a fresh start would (a committed checkpoint overrides it).
		re, err := NewUpdatable(art, append(durableTestOpts(), WithDurability(dir, SyncAlways()))...)
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		var buf bytes.Buffer
		if _, err := re.WriteTo(&buf); err != nil {
			t.Fatalf("%s: serializing recovered artifact: %v", name, err)
		}

		// Acceptance: recovered state is the acked prefix, or the acked
		// prefix plus the batch whose append was cut between disk and
		// ack. Nothing else.
		floor := max(acked, 0)
		ok := bytes.Equal(buf.Bytes(), refs[floor])
		if !ok && floor+1 <= len(batches) {
			ok = bytes.Equal(buf.Bytes(), refs[floor+1])
		}
		if !ok {
			t.Fatalf("%s: recovered artifact matches no acceptable prefix (acked %d)", name, acked)
		}

		// The recovered artifact keeps accepting durable updates.
		if _, err := re.ApplyUpdates([]model.EdgeUpdate{{U: 0, V: 1}, {U: 0, V: 1, Delete: true}}); err != nil {
			t.Fatalf("%s: post-recovery update: %v", name, err)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", name, err)
		}
	})
}

// TestDurableAppendFailureRejectsBatch: when the log cannot persist a
// batch, ApplyUpdates must fail with model.ErrDurability and the batch
// must not be visible to readers — no ack, no state change.
func TestDurableAppendFailureRejectsBatch(t *testing.T) {
	art := buildDurableTestArtifact(t)
	fs := faultfs.Wrap(wal.OSFS{})
	up, err := NewUpdatable(art, append(durableTestOpts(),
		WithDurability(t.TempDir(), SyncAlways()), withWALFS(fs))...)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	before := up.View().Version()
	fs.KillAt(fs.Ops()+1, false)
	_, err = up.ApplyUpdates([]model.EdgeUpdate{{U: 0, V: 1, Delete: true}})
	if err == nil {
		t.Fatal("update acknowledged while the log was failing")
	}
	if up.View().Version() != before {
		t.Fatal("failed durable append still published a snapshot")
	}
}

// TestOpenUpdatableEmptyDir: recovery from a directory that never saw a
// checkpoint must fail rather than serve an empty summary.
func TestOpenUpdatableEmptyDir(t *testing.T) {
	if _, err := OpenUpdatable(t.TempDir(), SyncAlways(), durableTestOpts()...); err == nil {
		t.Fatal("OpenUpdatable over an empty directory succeeded")
	}
}

// TestDurableCheckpointBoundsReplay: compaction must retire replayed
// log segments so recovery replays only the post-checkpoint suffix.
func TestDurableCheckpointBoundsReplay(t *testing.T) {
	art := buildDurableTestArtifact(t)
	batches := durableTestBatches(durableTestGraph())
	dir := t.TempDir()
	up, err := NewUpdatable(art, append(durableTestOpts(), WithDurability(dir, SyncAlways()))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := up.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.Compact(); err != nil {
		t.Fatal(err)
	}
	ds := up.Durability()
	if ds.CheckpointLSN == 0 || ds.Checkpoints < 2 { // seed + compaction
		t.Fatalf("checkpoint not advanced by compaction: %+v", ds)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenUpdatable(dir, SyncAlways(), durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rds := re.Durability(); rds.RecoveredRecords != 0 {
		t.Fatalf("replayed %d batches after a full compaction, want 0", rds.RecoveredRecords)
	}
}

// TestDurableCloseAfterBackgroundCompaction: Close right after a
// background compaction must find that compaction's checkpoint already
// in the log, so the next open replays only the batches logged after
// the compaction captured its view — not the whole log.
func TestDurableCloseAfterBackgroundCompaction(t *testing.T) {
	art := buildDurableTestArtifact(t)
	batches := durableTestBatches(durableTestGraph())
	dir := t.TempDir()
	// Two more batches follow the one that starts the compaction. Their
	// at most ten corrections stay under the threshold, so no second
	// compaction (and checkpoint) can start.
	const threshold, after = 12, 2
	opts := append(durableTestOpts(), WithCompactionThreshold(threshold), WithDurability(dir, SyncAlways()))
	up, err := NewUpdatable(art, opts...)
	if err != nil {
		t.Fatal(err)
	}
	started, ckptLSN := 0, uint64(0) // the batch that started the compaction, and its LSN
	for i, b := range batches {
		if _, err := up.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
		if st := up.Live().Stats(); started == 0 && (st.Compacting || st.Compactions > 0) {
			started, ckptLSN = i+1, st.DurableLSN
		}
		if started > 0 && i+1 == started+after {
			break
		}
	}
	if started == 0 || started+after > len(batches) {
		t.Fatalf("compaction started at batch %d of %d: the stream is too short for this test", started, len(batches))
	}
	// Batches that change nothing are not logged, so count by LSN.
	logged := int(up.Live().Stats().DurableLSN - ckptLSN)
	if logged == 0 {
		t.Fatal("no batch was logged after the compaction began: nothing to tell apart")
	}
	up.Live().Quiesce()
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenUpdatable(dir, SyncAlways(), durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rds := re.Durability()
	if !rds.RecoveredCheckpoint || rds.CheckpointLSN != ckptLSN || rds.RecoveredRecords != logged {
		t.Fatalf("reopen: checkpoint %v at LSN %d, %d batches replayed; want the compaction's checkpoint at LSN %d and only the %d batches logged after it",
			rds.RecoveredCheckpoint, rds.CheckpointLSN, rds.RecoveredRecords, ckptLSN, logged)
	}
	want, err := NewUpdatable(art, durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:started+after] {
		if _, err := want.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	if !graph.Equal(re.Decode(), want.Decode()) {
		t.Fatal("recovered graph differs from the acknowledged update stream")
	}
}
