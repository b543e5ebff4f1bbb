package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func payload(i int) []byte { return []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%7))) }

func mustOpen(t *testing.T, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendN(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		lsn, err := l.Append(payload(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); lsn != want {
			t.Fatalf("Append %d: lsn %d, want %d", i, lsn, want)
		}
	}
}

func checkRecords(t *testing.T, recs []Record, firstLSN uint64, fromIdx, toIdx int) {
	t.Helper()
	if len(recs) != toIdx-fromIdx {
		t.Fatalf("recovered %d records, want %d", len(recs), toIdx-fromIdx)
	}
	for k, r := range recs {
		i := fromIdx + k
		if r.LSN != firstLSN+uint64(k) {
			t.Fatalf("record %d: lsn %d, want %d", k, r.LSN, firstLSN+uint64(k))
		}
		if !bytes.Equal(r.Payload, payload(i)) {
			t.Fatalf("record %d: payload %q, want %q", k, r.Payload, payload(i))
		}
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations.
	l, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	if rec.HasCheckpoint || len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	appendN(t, l, 0, 50)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	defer l2.Close()
	if rec2.HasCheckpoint || rec2.Truncated {
		t.Fatalf("unexpected recovery flags: %+v", rec2)
	}
	checkRecords(t, rec2.Records, 1, 0, 50)
	// Appends continue with dense LSNs.
	lsn, err := l2.Append(payload(50))
	if err != nil || lsn != 51 {
		t.Fatalf("post-recovery Append: lsn %d err %v, want 51 nil", lsn, err)
	}
}

func TestCheckpointRetiresSegmentsAndReplaysSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 40)
	segsBefore := countFiles(t, dir, ".seg")
	state := []byte("compacted-state-through-25")
	if err := l.Checkpoint(25, func(w io.Writer) error { _, err := w.Write(state); return err }); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Retirement must have dropped fully superseded segments.
	if after := countFiles(t, dir, ".seg"); after >= segsBefore {
		t.Fatalf("checkpoint retired nothing: %d segments before, %d after", segsBefore, after)
	}
	appendN(t, l, 40, 45)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	defer l2.Close()
	if !rec.HasCheckpoint || rec.CheckpointLSN != 25 {
		t.Fatalf("checkpoint lsn %d (has %v), want 25", rec.CheckpointLSN, rec.HasCheckpoint)
	}
	if !bytes.Equal(rec.Checkpoint, state) {
		t.Fatalf("checkpoint payload %q, want %q", rec.Checkpoint, state)
	}
	checkRecords(t, rec.Records, 26, 25, 45)
	// A stale checkpoint is a no-op.
	if err := l2.Checkpoint(10, func(w io.Writer) error { t.Fatal("stale checkpoint wrote"); return nil }); err != nil {
		t.Fatalf("stale Checkpoint: %v", err)
	}
	// A checkpoint beyond the last appended record is rejected.
	if err := l2.Checkpoint(99, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("future Checkpoint accepted")
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 3 bytes.
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
	checkRecords(t, rec.Records, 1, 0, 9)
	// The next append must land after the surviving records.
	if lsn, err := l2.Append(payload(9)); err != nil || lsn != 10 {
		t.Fatalf("Append after truncation: lsn %d err %v, want 10 nil", lsn, err)
	}
}

func TestBitFlipTruncatesAtFirstCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 1 << 20})
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of roughly the 4th record.
	data[segHdrLen+3*(frameHdrLen+len(payload(0)))+frameHdrLen+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !rec.Truncated {
		t.Fatal("bit flip not reported as truncation")
	}
	if len(rec.Records) >= 10 {
		t.Fatalf("recovered %d records past a corrupt frame", len(rec.Records))
	}
	// Everything before the flip survives exactly.
	checkRecords(t, rec.Records, 1, 0, len(rec.Records))
}

func TestCorruptMiddleSegmentDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs := allSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt the second segment's header.
	mid := segs[1]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	defer l2.Close()
	if !rec.Truncated {
		t.Fatal("corrupt middle segment not reported")
	}
	// Only the first segment's records survive; later segments are
	// dropped, not resurrected.
	checkRecords(t, rec.Records, 1, 0, len(rec.Records))
	if len(rec.Records) == 0 || len(rec.Records) >= 40 {
		t.Fatalf("recovered %d records, want a proper non-empty prefix", len(rec.Records))
	}
	// Appends continue from the truncation point with dense LSNs.
	lsn, err := l2.Append([]byte("after"))
	if err != nil || lsn != uint64(len(rec.Records))+1 {
		t.Fatalf("Append: lsn %d err %v, want %d", lsn, err, len(rec.Records)+1)
	}
}

func TestIntervalAndNeverPoliciesSurviveCleanClose(t *testing.T) {
	for _, pol := range []Policy{Every(5 * time.Millisecond), Never()} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, Options{Dir: dir, Policy: pol})
			appendN(t, l, 0, 20)
			if pol.Mode == SyncEvery {
				// Give the background flusher one chance to run.
				time.Sleep(20 * time.Millisecond)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2, rec := mustOpen(t, Options{Dir: dir})
			defer l2.Close()
			checkRecords(t, rec.Records, 1, 0, 20)
		})
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"always", Always(), true},
		{"each", Always(), true},
		{"never", Never(), true},
		{"off", Never(), true},
		{"interval", Every(DefaultSyncInterval), true},
		{"interval=100ms", Every(100 * time.Millisecond), true},
		{"interval=0s", Policy{}, false},
		{"interval=bogus", Policy{}, false},
		{"sometimes", Policy{}, false},
		{"", Policy{}, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePolicy(%q): err %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Round trip through String.
	for _, p := range []Policy{Always(), Never(), Every(250 * time.Millisecond)} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("ParsePolicy(%q) = %+v, %v; want %+v", p.String(), back, err, p)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	defer l.Close()
	if _, err := l.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The log stays usable (the reject happened before any write).
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatalf("Append after reject: %v", err)
	}
}

func TestClosedLogRefusesOperations(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	appendN(t, l, 0, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync on closed log: %v, want ErrClosed", err)
	}
	if err := l.Checkpoint(1, func(io.Writer) error { return nil }); err != ErrClosed {
		t.Fatalf("Checkpoint on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir, SegmentBytes: 128})
	appendN(t, l, 0, 20)
	if err := l.Checkpoint(10, func(w io.Writer) error { _, err := w.Write([]byte("s")); return err }); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.NextLSN != 21 || st.CheckpointLSN != 10 || st.Appends != 20 || st.Checkpoints != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Policy != "always" {
		t.Fatalf("policy %q", st.Policy)
	}
	if st.Segments < 1 {
		t.Fatalf("segments %d", st.Segments)
	}
	l.Close()
}

// TestReopenWithEmptyActiveSegment models a crash immediately after
// Open: the empty active segment must not confuse the next recovery or
// alias the new active segment in the retirement list.
func TestReopenWithEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Options{Dir: dir})
	appendN(t, l, 0, 5)
	l.Close()
	// Open and "crash" without appending: leaves a fresh empty segment.
	l2, _ := mustOpen(t, Options{Dir: dir})
	_ = l2 // abandoned, as a crash would
	l3, rec := mustOpen(t, Options{Dir: dir})
	checkRecords(t, rec.Records, 1, 0, 5)
	appendN(t, l3, 5, 8)
	// Checkpointing at the head must never retire the active segment.
	if err := l3.Checkpoint(8, func(w io.Writer) error { _, err := w.Write([]byte("s")); return err }); err != nil {
		t.Fatal(err)
	}
	appendN(t, l3, 8, 10)
	l3.Close()
	l4, rec4 := mustOpen(t, Options{Dir: dir})
	defer l4.Close()
	checkRecords(t, rec4.Records, 9, 8, 10)
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			n++
		}
	}
	return n
}

func allSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := allSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	return segs[0]
}

// dirSyncFS is the real filesystem that counts the segments created in
// dir since dir was last fsynced.
type dirSyncFS struct {
	OSFS
	dir      string
	unsynced int
}

type dirSyncFile struct {
	File
	fs    *dirSyncFS
	isDir bool
}

func (f dirSyncFile) Sync() error {
	if f.isDir {
		f.fs.unsynced = 0
	}
	return f.File.Sync()
}

func (fs *dirSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 && strings.HasSuffix(name, ".seg") {
		fs.unsynced++
	}
	return dirSyncFile{f, fs, name == fs.dir}, nil
}

// TestNewSegmentDirectorySynced: under SyncAlways an acknowledged
// record must survive power loss, and so must the directory entry of
// the segment that holds it. No Append returns while a segment created
// by Open or by a rotation is missing from a synced directory.
func TestNewSegmentDirectorySynced(t *testing.T) {
	fs := &dirSyncFS{dir: t.TempDir()}
	l, _ := mustOpen(t, Options{Dir: fs.dir, SegmentBytes: 128, FS: fs})
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		if fs.unsynced != 0 {
			t.Fatalf("Append %d returned with %d new segment(s) whose directory entry was never synced", i, fs.unsynced)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("only %d segments: the log never rotated", l.Stats().Segments)
	}
}
