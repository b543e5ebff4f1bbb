// Package faultfs is a fault-injecting wal.FS for crash testing: it
// counts mutating filesystem operations (writes, syncs, renames,
// removes, truncates, creates) and can "kill the process" at an exact
// operation boundary — the chosen operation and every operation after
// it fail with ErrKilled, exactly as if the process had died there.
// Kills landing on a write can optionally persist a prefix of the
// buffer first (a torn write), modeling a crash mid pwrite.
//
// The standard crash test, KillEvery, runs a scripted workload once
// with no kill to learn the total operation count, then replays it once
// per kill point and way to die, reopening the directory with a clean
// filesystem after each kill and asserting recovery invariants.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/wal"
)

// NoSync is the real filesystem without fsyncs. FS keeps its
// power-loss model in its own buffers, so a crash test's verdicts do
// not depend on the disk flush, which would only cost it time.
type NoSync struct{ wal.OSFS }

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

func (NoSync) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

// KillEvery runs work once on a counting filesystem to learn its
// operation count (at least minOps; an error fails the test), then in
// a fresh directory once per kill point and way to die — clean, torn
// write, power loss, power loss mid-fsync (torn and volatile) —
// handing each killed run's name, directory and error to check.
func KillEvery(t testing.TB, minOps int, work func(fs wal.FS, dir string) error, check func(name, dir string, err error)) {
	t.Helper()
	probe := Wrap(NoSync{})
	if err := work(probe, t.TempDir()); err != nil {
		t.Fatalf("unkilled run: %v", err)
	}
	total := probe.Ops()
	if total < minOps {
		t.Fatalf("the workload performed only %d filesystem operations, want at least %d", total, minOps)
	}
	t.Logf("%d filesystem operations, each killed 4 ways", total)
	for _, volatile := range []bool{false, true} {
		for _, torn := range []bool{false, true} {
			for killAt := 1; killAt <= total; killAt++ {
				dir := t.TempDir()
				err := work(&FS{inner: NoSync{}, killAt: killAt, torn: torn, volatile: volatile}, dir)
				check(fmt.Sprintf("kill=%d/%d,torn=%v,volatile=%v", killAt, total, torn, volatile), dir, err)
			}
		}
	}
}

// ErrKilled is returned by every operation at and after the kill point.
var ErrKilled = errors.New("faultfs: killed at injected crash point")

// FS wraps an inner wal.FS with fault injection. Safe for concurrent
// use.
type FS struct {
	inner wal.FS

	mu     sync.Mutex
	ops    int  // mutating operations observed so far
	killAt int  // kill on reaching this op ordinal (1-based); 0 = never
	torn   bool // kills landing on a write/sync persist a prefix first
	killed bool
	// volatile, fixed at creation, is the power-loss model: writes
	// buffer in memory until Sync, so a kill loses everything unsynced,
	// as a power failure loses the page cache — which catches a missing
	// fsync that a passthrough kill would forgive.
	volatile bool
	// syncErrAt makes the Nth sync fail with a plain error without
	// killing the filesystem (models a transient fsync failure; 0 =
	// never). The log must fail-stop on it.
	syncErrAt int
	syncs     int
}

// Wrap returns a fault-injecting view of inner.
func Wrap(inner wal.FS) *FS { return &FS{inner: inner} }

// KillAt arms the crash: the n-th mutating operation (1-based) and all
// later ones fail with ErrKilled. With torn set, a kill landing on a
// write persists half the buffer before failing.
func (f *FS) KillAt(n int, torn bool) {
	f.mu.Lock()
	f.killAt, f.torn = n, torn
	f.mu.Unlock()
}

// FailSyncAt makes the n-th sync (1-based) return an error without
// killing the filesystem.
func (f *FS) FailSyncAt(n int) {
	f.mu.Lock()
	f.syncErrAt = n
	f.mu.Unlock()
}

// Ops returns the number of mutating operations observed.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Killed reports whether the kill point has been reached.
func (f *FS) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// step accounts one mutating operation. It returns (tornWrite, err):
// err is ErrKilled at and after the kill point; tornWrite is true when
// this exact operation is the kill and should persist a prefix.
func (f *FS) step(isWrite bool) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return false, ErrKilled
	}
	f.ops++
	if f.killAt > 0 && f.ops >= f.killAt {
		f.killed = true
		return isWrite && f.torn, ErrKilled
	}
	return false, nil
}

func (f *FS) MkdirAll(dir string, perm os.FileMode) error {
	if _, err := f.step(false); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir, perm)
}

func (f *FS) ReadDir(dir string) ([]os.DirEntry, error) {
	// Reads are not mutating and never killed individually, but a dead
	// filesystem refuses everything.
	if f.Killed() {
		return nil, ErrKilled
	}
	return f.inner.ReadDir(dir)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if _, err := f.step(false); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if _, err := f.step(false); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	mutating := flag&(os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_RDWR|os.O_APPEND) != 0
	if mutating {
		if _, err := f.step(false); err != nil {
			return nil, err
		}
	} else if f.Killed() {
		return nil, ErrKilled
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

type faultFile struct {
	fs    *FS
	inner wal.File
	// pending holds written-but-unsynced bytes in volatile mode; they
	// reach inner only on Sync and are lost on a kill.
	pending []byte
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if ff.fs.Killed() {
		return 0, ErrKilled
	}
	return ff.inner.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	torn, err := ff.fs.step(true)
	if err != nil {
		if torn && !ff.fs.volatile && len(p) > 0 {
			// Crash mid-write: half the buffer reaches the file. (In the
			// volatile model an unsynced write is page-cache only, so a
			// kill during it persists nothing.)
			n, _ := ff.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	if ff.fs.volatile {
		ff.pending = append(ff.pending, p...)
		return len(p), nil
	}
	return ff.inner.Write(p)
}

// flushPending moves buffered bytes to the real file (volatile mode).
func (ff *faultFile) flushPending(limit int) error {
	if limit > len(ff.pending) {
		limit = len(ff.pending)
	}
	if limit > 0 {
		if _, err := ff.inner.Write(ff.pending[:limit]); err != nil {
			return err
		}
	}
	ff.pending = ff.pending[limit:]
	return nil
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	ff.fs.syncs++
	failSync := ff.fs.syncErrAt > 0 && ff.fs.syncs == ff.fs.syncErrAt
	ff.fs.mu.Unlock()
	if failSync {
		return errors.New("faultfs: injected fsync failure")
	}
	torn, err := ff.fs.step(false)
	if err != nil {
		if ff.fs.volatile && torn {
			// Power loss mid-fsync: an arbitrary prefix of the dirty
			// pages made it to the platter.
			ff.flushPending(len(ff.pending) / 2)
		}
		return err
	}
	if ff.fs.volatile {
		if err := ff.flushPending(len(ff.pending)); err != nil {
			return err
		}
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if _, err := ff.fs.step(false); err != nil {
		return err
	}
	if len(ff.pending) > 0 {
		if err := ff.flushPending(len(ff.pending)); err != nil {
			return err
		}
	}
	return ff.inner.Truncate(size)
}

func (ff *faultFile) Close() error {
	// Closing is not a durability point: in the volatile model pending
	// bytes stay in the "page cache" (they are dropped — the crash
	// matrix only reasons about synced data), and a dead filesystem
	// still lets the process release handles.
	return ff.inner.Close()
}
