package slug

// White-box check of the v2 checkpoint fast path: a compaction's
// checkpoint is the served base in the v2 compiled layout, and recovery
// seeds the live base from those bytes while serving the exact
// acknowledged state.

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

func TestDurableCheckpointRecoversMapped(t *testing.T) {
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
	// Compact: the rebuilt base is checkpointed in the v2 layout.
	if err := up.Compact(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := up.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}

	// The checkpoint on disk is the compiled layout, not an envelope.
	log, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.Always()})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if !rec.HasCheckpoint || !bytes.HasPrefix(rec.Checkpoint, []byte(compiledMagic)) {
		t.Fatalf("checkpoint present %v, magic %q: want a v2 checkpoint", rec.HasCheckpoint, rec.Checkpoint[:min(4, len(rec.Checkpoint))])
	}

	re, err := OpenUpdatable(dir, SyncAlways(), durableTestOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	// The recovered base is the checkpoint's compiled form, byte for byte.
	var base bytes.Buffer
	if _, err := writeCompiled(&base, re.Algorithm(), re.View().Base()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Bytes(), rec.Checkpoint) {
		t.Fatalf("recovered base (%d bytes) differs from the checkpoint (%d bytes)", base.Len(), len(rec.Checkpoint))
	}

	// And it serves the exact acknowledged state.
	var got bytes.Buffer
	if _, err := re.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("recovered artifact diverges from pre-shutdown state: %d vs %d bytes", want.Len(), got.Len())
	}
}
