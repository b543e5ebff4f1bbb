// Package wal is a durable write-ahead log for update records: the
// persistence layer under mutable served summaries. Records are opaque
// byte payloads framed with a length prefix and a CRC32C, appended to
// size-rotated segment files under one directory and assigned dense
// monotonic LSNs. Recovery (Open) tolerates torn tails — a crash mid
// write truncates the log at the first corrupt frame instead of failing
// — and a checkpoint file captures compacted state so superseded
// segments can be retired atomically.
//
// Durability is governed by a fsync Policy: SyncAlways makes every
// Append fsync before returning (an acknowledged record survives any
// crash), SyncEvery batches fsyncs on a background interval (a crash
// may lose the last interval's acknowledged records), SyncNever leaves
// flushing to the OS (a crash loses up to the OS writeback window;
// process death alone loses nothing once Appended).
//
// On-disk layout under Dir:
//
//	wal-<firstLSN>.seg   segment: header | frame*     (hex, zero-padded)
//	ckpt-<lsn>.ck        checkpoint: header | payload | trailer
//	ckpt.tmp             checkpoint being written (ignored on open)
//
// segment header:  "SLWS" | version u8 | firstLSN u64le
// frame:           payloadLen u32le | crc32c(payload) u32le | payload
// checkpoint:      "SLWC" | version u8 | lsn u64le | payload | crc32c(payload) u32le | payloadLen u64le | "SLWE"
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

const (
	segMagic    = "SLWS"
	ckptMagic   = "SLWC"
	ckptEnd     = "SLWE"
	formatVer   = 1
	segHdrLen   = 4 + 1 + 8
	frameHdrLen = 4 + 4
	ckptHdrLen  = 4 + 1 + 8
	ckptTrlLen  = 4 + 8 + 4

	// maxRecordBytes bounds one record, so a corrupt length prefix can
	// never provoke a giant allocation during recovery.
	maxRecordBytes = 64 << 20

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 8 << 20

	// DefaultSyncInterval is the flush cadence when Options selects
	// SyncEvery with a zero interval.
	DefaultSyncInterval = 50 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when appends are made durable.
type SyncMode uint8

const (
	// SyncAlways fsyncs before every Append returns.
	SyncAlways SyncMode = iota
	// SyncEvery fsyncs on a background interval.
	SyncEvery
	// SyncNever never fsyncs explicitly (OS writeback only).
	SyncNever
)

// Policy is a fsync mode plus its interval (SyncEvery only).
type Policy struct {
	Mode     SyncMode
	Interval time.Duration
}

// Always returns the strongest policy: fsync per record.
func Always() Policy { return Policy{Mode: SyncAlways} }

// Every returns the batched policy: fsync at most every d.
func Every(d time.Duration) Policy { return Policy{Mode: SyncEvery, Interval: d} }

// Never returns the weakest policy: no explicit fsync.
func Never() Policy { return Policy{Mode: SyncNever} }

// String formats the policy in the syntax ParsePolicy accepts.
func (p Policy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncEvery:
		d := p.Interval
		if d <= 0 {
			d = DefaultSyncInterval
		}
		return "interval=" + d.String()
	default:
		return "never"
	}
}

// ParsePolicy parses "always", "never", "interval" (default cadence) or
// "interval=<duration>" (e.g. "interval=100ms").
func ParsePolicy(s string) (Policy, error) {
	switch {
	case s == "always" || s == "each":
		return Always(), nil
	case s == "never" || s == "off":
		return Never(), nil
	case s == "interval":
		return Every(DefaultSyncInterval), nil
	case len(s) > len("interval=") && s[:len("interval=")] == "interval=":
		d, err := time.ParseDuration(s[len("interval="):])
		if err != nil || d <= 0 {
			return Policy{}, fmt.Errorf("wal: bad sync interval %q", s)
		}
		return Every(d), nil
	}
	return Policy{}, fmt.Errorf("wal: unknown fsync policy %q (want always, interval[=dur], never)", s)
}

// Options configures Open.
type Options struct {
	// Dir holds the segments and checkpoints; created if missing.
	Dir string
	// Policy is the fsync policy (zero value = SyncAlways).
	Policy Policy
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// FS overrides the filesystem (nil = the real one). Tests inject
	// fault-injecting filesystems here.
	FS FS
}

// Record is one recovered record.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Recovery is what Open found on disk.
type Recovery struct {
	// HasCheckpoint reports whether a valid checkpoint was found;
	// Checkpoint then holds its payload and CheckpointLSN the LSN its
	// state covers (records <= CheckpointLSN are superseded by it).
	HasCheckpoint bool
	CheckpointLSN uint64
	Checkpoint    []byte
	// Records are the surviving records with LSN > CheckpointLSN, in
	// LSN order (dense, starting at CheckpointLSN+1 when any exist).
	Records []Record
	// Truncated reports that a torn or corrupt frame cut recovery short:
	// the log was truncated at the first bad frame and everything after
	// it (including later segments) was discarded.
	Truncated bool
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Dir           string
	Policy        string
	NextLSN       uint64 // LSN the next Append will get
	CheckpointLSN uint64 // highest committed checkpoint
	Segments      int    // live segment files (including active)
	Appends       uint64
	Syncs         uint64
	Checkpoints   uint64
}

type segMeta struct {
	first uint64 // LSN of the segment's first record
	path  string
}

// Log is an open write-ahead log. Append/Sync/Checkpoint/Close are safe
// for concurrent use.
type Log struct {
	dir      string
	fs       FS
	policy   Policy
	segBytes int64

	mu       sync.Mutex
	err      error // sticky: after a write/sync failure the log is fail-stop
	closed   bool
	active   File
	bw       *bufio.Writer
	actSize  int64
	actFirst uint64
	nextLSN  uint64
	dirty    bool
	segments []segMeta // all live segments in LSN order, active last
	ckptLSN  uint64
	hasCkpt  bool

	appends, syncs, ckpts uint64

	stopc chan struct{}
	donec chan struct{}

	ckMu sync.Mutex // serializes Checkpoint calls
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Open recovers the log in opts.Dir (creating it when absent) and
// returns it ready for appends, together with what was recovered.
// Appends go to a fresh segment; recovered segments are never written
// again.
func Open(opts Options) (*Log, *Recovery, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if opts.Policy.Mode == SyncEvery && opts.Policy.Interval <= 0 {
		opts.Policy.Interval = DefaultSyncInterval
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{
		dir:      opts.Dir,
		fs:       fs,
		policy:   opts.Policy,
		segBytes: segBytes,
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, nil, err
	}
	if l.policy.Mode == SyncEvery {
		l.stopc = make(chan struct{})
		l.donec = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// openActive creates the segment new appends go to.
func (l *Log) openActive() error {
	name := segName(l.nextLSN)
	path := join(l.dir, name)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	var hdr [segHdrLen]byte
	copy(hdr[:4], segMagic)
	hdr[4] = formatVer
	binary.LittleEndian.PutUint64(hdr[5:], l.nextLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		return errors.Join(fmt.Errorf("wal: writing segment header: %w", err), f.Close())
	}
	// A record fsynced into the segment is durable only once the
	// segment's directory entry is.
	if err := SyncDir(l.fs, l.dir); err != nil {
		return errors.Join(fmt.Errorf("wal: syncing dir after creating segment %s: %w", name, err), f.Close())
	}
	l.active = f
	l.bw = bufio.NewWriterSize(writerOnly{f}, 64<<10)
	l.actSize = segHdrLen
	l.actFirst = l.nextLSN
	l.segments = append(l.segments, segMeta{first: l.nextLSN, path: path})
	return nil
}

// writerOnly hides the File's Read method from bufio (it would never be
// used, but keeps intent obvious).
type writerOnly struct{ io.Writer }

// Append durably records payload and returns its LSN. Under SyncAlways
// the record has been fsynced when Append returns; under the weaker
// policies it has been handed to the OS (SyncNever) or will be fsynced
// within the policy interval (SyncEvery). After any write or sync error
// the log is fail-stop: the error is sticky and all later appends fail.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds %d", len(payload), maxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	frame := int64(frameHdrLen + len(payload))
	if l.actSize > segHdrLen && l.actSize+frame > l.segBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		l.err = err
		return 0, err
	}
	if _, err := l.bw.Write(payload); err != nil {
		l.err = err
		return 0, err
	}
	l.actSize += frame
	lsn := l.nextLSN
	l.nextLSN++
	l.appends++
	l.dirty = true
	if l.policy.Mode == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment and opens a fresh one.
func (l *Log) rotateLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	// Seal with a fsync under every policy except SyncNever: once a
	// segment is no longer active it is never revisited, so an unsynced
	// seal would leave a permanent durability hole in the middle of the
	// log.
	if l.policy.Mode != SyncNever {
		if err := l.active.Sync(); err != nil {
			return err
		}
		l.syncs++
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.dirty = false
	return l.openActive()
}

// syncLocked flushes buffered frames and fsyncs the active segment.
func (l *Log) syncLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.dirty = false
	return nil
}

// Sync forces buffered appends to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if err := l.syncLocked(); err != nil {
		l.err = err
		return err
	}
	return nil
}

// syncLoop is the SyncEvery background flusher.
func (l *Log) syncLoop() {
	defer close(l.donec)
	t := time.NewTicker(l.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.err == nil && l.dirty {
				if err := l.syncLocked(); err != nil {
					l.err = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs (unless SyncNever) and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.err == nil {
		if ferr := l.bw.Flush(); ferr != nil {
			err = ferr
		} else if l.policy.Mode != SyncNever && l.dirty {
			if serr := l.active.Sync(); serr != nil {
				err = serr
			} else {
				l.syncs++
			}
		}
	}
	if cerr := l.active.Close(); cerr != nil && err == nil {
		err = cerr
	}
	stop := l.stopc
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.donec
	}
	return err
}

// Checkpoint atomically persists compacted state covering every record
// with LSN <= lsn (write is handed an io.Writer for the payload), then
// retires superseded segments and older checkpoints. The checkpoint is
// committed by WriteFile and a directory fsync; a crash at any point
// leaves either the old or the new checkpoint authoritative, never a
// torn one. Stale calls (lsn at or below the committed checkpoint) are
// no-ops. lsn may exceed the state actually captured only if record
// semantics are last-writer-wins per key (replaying a suffix of
// already-applied records must be idempotent) — which holds for edge
// updates.
func (l *Log) Checkpoint(lsn uint64, write func(io.Writer) error) error {
	l.ckMu.Lock()
	defer l.ckMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.hasCkpt && lsn <= l.ckptLSN {
		l.mu.Unlock()
		return nil
	}
	if lsn >= l.nextLSN {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint lsn %d beyond last appended %d", lsn, l.nextLSN-1)
	}
	l.mu.Unlock()

	var hdr [ckptHdrLen]byte
	copy(hdr[:4], ckptMagic)
	hdr[4] = formatVer
	binary.LittleEndian.PutUint64(hdr[5:], lsn)
	err := WriteFile(l.fs, join(l.dir, "ckpt.tmp"), join(l.dir, ckptName(lsn)), func(w io.Writer) error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		cw := &crcWriter{w: w, crc: crc32.New(castagnoli)}
		if err := write(cw); err != nil {
			return err
		}
		var trl [ckptTrlLen]byte
		binary.LittleEndian.PutUint32(trl[0:], cw.crc.Sum32())
		binary.LittleEndian.PutUint64(trl[4:], uint64(cw.n))
		copy(trl[12:], ckptEnd)
		_, err := w.Write(trl[:])
		return err
	})
	if err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := SyncDir(l.fs, l.dir); err != nil {
		return fmt.Errorf("wal: syncing dir after checkpoint: %w", err)
	}

	// The new checkpoint is durable: retire everything it supersedes.
	l.mu.Lock()
	prev, hadPrev := l.ckptLSN, l.hasCkpt
	l.ckptLSN, l.hasCkpt = lsn, true
	l.ckpts++
	var retire []string
	// A segment is superseded when all its records are <= lsn: its
	// successor's first LSN tells where it ends. The active (last)
	// segment is never retired.
	kept := l.segments[:0]
	for i, s := range l.segments {
		if i+1 < len(l.segments) && l.segments[i+1].first <= lsn+1 {
			retire = append(retire, s.path)
			continue
		}
		kept = append(kept, s)
	}
	l.segments = kept
	l.mu.Unlock()
	if hadPrev && prev != lsn {
		l.fs.Remove(join(l.dir, ckptName(prev)))
	}
	for _, p := range retire {
		l.fs.Remove(p)
	}
	return nil
}

type crcWriter struct {
	w   io.Writer
	crc hash32
	n   int64
}

type hash32 interface {
	io.Writer
	Sum32() uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Dir:           l.dir,
		Policy:        l.policy.String(),
		NextLSN:       l.nextLSN,
		CheckpointLSN: l.ckptLSN,
		Segments:      len(l.segments),
		Appends:       l.appends,
		Syncs:         l.syncs,
		Checkpoints:   l.ckpts,
	}
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }
func ckptName(lsn uint64) string  { return fmt.Sprintf("ckpt-%016x.ck", lsn) }
