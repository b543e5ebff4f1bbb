package wal

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the log needs. Production code uses
// OSFS; tests inject a fault-injecting implementation (faultfs) to
// exercise crashes at exact syscall boundaries.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	ReadDir(dir string) ([]os.DirEntry, error)
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is one open file of an FS. Reads and writes follow io semantics
// (a short write must return an error).
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }
func (OSFS) ReadDir(dir string) ([]os.DirEntry, error)   { return os.ReadDir(dir) }
func (OSFS) Rename(oldpath, newpath string) error        { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                    { return os.Remove(name) }
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// WriteFile is the one crash-safe commit of a file: it creates tmp
// (0644, truncating any leftover), hands it to write, fsyncs and closes
// it, and renames it over path, so path holds either its old bytes or
// all of the new ones. On failure tmp is removed and path is untouched.
// The rename is durable once the directory is synced (SyncDir); a
// caller committing several files into one directory syncs it once,
// after the last.
func WriteFile(fs FS, tmp, path string, write func(io.Writer) error) error {
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
	}
	return err
}

// SyncDir makes the directory-entry mutations in dir (creations,
// renames, removals) durable. Failure is reported to the caller: a
// rename is not committed until it has reached the disk.
func SyncDir(fs FS, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// join is filepath.Join, aliased so the package reads uniformly.
func join(dir, name string) string { return filepath.Join(dir, name) }
