// Package faultfs is the pluggable file abstraction beneath the durable
// layers (the write-ahead log's segments and manifest), plus a deterministic
// fault-injection implementation of it.
//
// Production code runs on OS, a zero-cost passthrough to the real
// filesystem. Tests run on MemFS, an in-memory filesystem that models
// durability the way a disk does: every write lands in a volatile
// "page cache" immediately but only becomes crash-durable when the file
// is fsynced, and a file's directory entry (creation, rename, removal)
// only becomes crash-durable when its parent directory is SyncDir'd.
// A Script injects faults at exact operation counts — fail
// the Nth write, short-write k bytes, tear a write so only a prefix
// survives a crash, fail an fsync, or crash the whole filesystem — and
// MemFS.CrashImage reconstructs what a machine would find on disk after
// the crash, so recovery can be exercised at every I/O boundary.
package faultfs

import (
	"errors"
	"io"
	"os"
)

// File is the handle surface the WAL needs. *os.File
// satisfies it directly.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS opens files. Implementations must return errors satisfying
// os.IsNotExist for missing files opened without O_CREATE. Rename must
// replace newpath atomically when it exists (the POSIX rename contract
// the segmented WAL's manifest update relies on).
//
// Creations, renames, and removals mutate a directory, and on a real
// POSIX filesystem the directory entry is only crash-durable after the
// directory itself is fsynced — a fully-fsynced file can vanish in a
// crash if its entry never made it to disk. SyncDir is that barrier;
// the durable layers must call it before relying on a new or renamed
// file's existence.
type FS interface {
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	MkdirAll(path string, perm os.FileMode) error
	Remove(path string) error
	Rename(oldpath, newpath string) error
	SyncDir(path string) error
}

// Errors returned by injected faults.
var (
	// ErrInjected is the default error produced by ActError and
	// ActShortWrite rules.
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrCrashed is returned by every operation once the filesystem has
	// crashed (an ActCrash rule fired).
	ErrCrashed = errors.New("faultfs: filesystem crashed")
)

// OS is the passthrough filesystem over the real one.
type OS struct{}

// OpenFile opens path on the host filesystem.
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// MkdirAll creates the directory path on the host filesystem.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Remove deletes path from the host filesystem.
func (OS) Remove(path string) error { return os.Remove(path) }

// Rename atomically renames oldpath to newpath on the host filesystem.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir fsyncs the directory at path, forcing its entries to disk.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
