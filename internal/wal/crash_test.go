package wal_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// crashWorkload drives a fixed append/checkpoint/append script against
// a log on the given FS, stopping at the first injected kill. It
// returns the LSNs that were acknowledged (Append returned nil) and the
// checkpoint LSN if the Checkpoint call was acknowledged (0 otherwise).
//
// Payload for LSN i is payloadFor(i), so recovery can verify content.
func crashWorkload(dir string, fs wal.FS) (acked []uint64, ackedCkpt uint64) {
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: fs, SegmentBytes: 96, Policy: wal.Always()})
	if err != nil {
		return nil, 0
	}
	defer l.Close()
	for i := 1; i <= 6; i++ {
		lsn, err := l.Append(payloadFor(uint64(i)))
		if err != nil {
			return acked, ackedCkpt
		}
		acked = append(acked, lsn)
	}
	if err := l.Checkpoint(4, func(w io.Writer) error {
		_, err := w.Write([]byte("state<=4"))
		return err
	}); err == nil {
		ackedCkpt = 4
	} else if fsf, ok := fs.(*faultfs.FS); ok && fsf.Killed() {
		return acked, ackedCkpt
	}
	for i := 7; i <= 12; i++ {
		lsn, err := l.Append(payloadFor(uint64(i)))
		if err != nil {
			return acked, ackedCkpt
		}
		acked = append(acked, lsn)
	}
	return acked, ackedCkpt
}

func payloadFor(lsn uint64) []byte {
	return []byte(fmt.Sprintf("payload-for-lsn-%d", lsn))
}

// TestCrashKillPointMatrix kills the "process" (all filesystem
// operations fail from an exact syscall boundary on) at every possible
// operation of a scripted append/checkpoint workload, each of
// faultfs.KillEvery's four ways, then recovers with a clean filesystem
// and asserts the two WAL invariants:
//
//  1. no acknowledged record is lost: every Append that returned nil
//     before the kill is covered by the recovered checkpoint or present
//     with its exact payload;
//  2. nothing is resurrected: every recovered record carries the exact
//     payload written for its LSN, and no LSN beyond the last attempted
//     append appears.
func TestCrashKillPointMatrix(t *testing.T) {
	var acked []uint64
	var ackedCkpt uint64
	faultfs.KillEvery(t, 10, func(fs wal.FS, dir string) error {
		if acked, ackedCkpt = crashWorkload(dir, fs); len(acked) != 12 {
			return fmt.Errorf("acked %d appends, want 12", len(acked))
		}
		return nil
	}, func(name, dir string, _ error) {
		// Recover with a clean filesystem, as a restarted process would.
		l, rec, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}

		byLSN := map[uint64][]byte{}
		maxSeen := uint64(0)
		for _, r := range rec.Records {
			byLSN[r.LSN] = r.Payload
			if r.LSN > maxSeen {
				maxSeen = r.LSN
			}
			// Invariant 2a: recovered payloads are exactly what was
			// written for that LSN — torn or flipped frames must never
			// surface as different content.
			if !bytes.Equal(r.Payload, payloadFor(r.LSN)) {
				t.Fatalf("%s: lsn %d recovered payload %q, want %q", name, r.LSN, r.Payload, payloadFor(r.LSN))
			}
		}
		// Invariant 2b: nothing beyond the last attempted append. The
		// workload attempts at most 12 records.
		if maxSeen > 12 {
			t.Fatalf("%s: resurrected lsn %d beyond any attempted append", name, maxSeen)
		}
		if rec.HasCheckpoint && rec.CheckpointLSN != 4 {
			t.Fatalf("%s: recovered checkpoint lsn %d, want 4", name, rec.CheckpointLSN)
		}
		if ackedCkpt != 0 && !rec.HasCheckpoint {
			t.Fatalf("%s: acknowledged checkpoint lost", name)
		}
		if rec.HasCheckpoint && !bytes.Equal(rec.Checkpoint, []byte("state<=4")) {
			t.Fatalf("%s: checkpoint payload %q", name, rec.Checkpoint)
		}

		// Invariant 1: every acknowledged record is recovered or
		// superseded by the recovered checkpoint.
		for _, lsn := range acked {
			if rec.HasCheckpoint && lsn <= rec.CheckpointLSN {
				continue
			}
			if _, ok := byLSN[lsn]; !ok {
				t.Fatalf("%s: acknowledged lsn %d lost (recovered %d records, ckpt %v/%d)",
					name, lsn, len(rec.Records), rec.HasCheckpoint, rec.CheckpointLSN)
			}
		}

		// The recovered log accepts appends at the right next LSN.
		nxt, err := l.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatalf("%s: post-recovery append: %v", name, err)
		}
		floor := maxSeen
		if rec.HasCheckpoint && rec.CheckpointLSN > floor {
			floor = rec.CheckpointLSN
		}
		if nxt != floor+1 {
			t.Fatalf("%s: post-recovery lsn %d, want %d", name, nxt, floor+1)
		}
		l.Close()
	})
}

// TestFsyncFailureIsFailStop: after an injected fsync error the log
// must refuse further appends (a lost ack would otherwise hide behind
// the next successful sync).
func TestFsyncFailureIsFailStop(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.Wrap(wal.OSFS{})
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: fs, Policy: wal.Always()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	fs.FailSyncAt(3) // syncs 1 and 2 were Open's directory sync and the first append's: the next append's fails
	if _, err := l.Append([]byte("two")); err == nil {
		t.Fatal("append with failing fsync acknowledged")
	}
	if _, err := l.Append([]byte("three")); err == nil {
		t.Fatal("append after fsync failure accepted: log is not fail-stop")
	}
}
