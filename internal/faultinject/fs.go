// Package faultinject is the deterministic fault-injection harness for the
// sweep system's durability and availability paths.
//
// It has two halves.  The filesystem half is an FS interface covering
// exactly the operations the disk cache and its lease layer perform, with a
// passthrough implementation over the real filesystem (OS) and a Faulty
// wrapper that injects I/O errors, partial writes and crash-before-rename by
// a seeded schedule — so a test (or a -fault-inject dev run) can replay the
// precise interleaving in which a writer died, byte for byte, on every run.
// The HTTP half (see http.go) wraps a handler with injected 429/503
// rejections, added latency and mid-stream connection drops on the same kind
// of seeded schedule, exercising the client's retry, reconnect and failover
// paths without real network failures.
//
// Determinism is the point: every fault decision consumes one value from a
// splitmix64 stream seeded by the caller, so a failing chaos run is
// reproduced exactly by its seed, never hunted statistically.
package faultinject

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface the cache's atomic-write protocol needs:
// write, close, and the name to rename from.
type File interface {
	io.Writer
	// Close flushes and closes the file.
	Close() error
	// Name returns the file's path.
	Name() string
}

// ErrLocked reports that Lock found the file locked by another open file.
var ErrLocked = errors.New("faultinject: file is locked")

// FS is the filesystem surface of the disk cache and its lease layer.  All
// methods but Lock have the semantics of the identically named os functions.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Lock opens or creates name and takes an exclusive flock(2) on it
	// without blocking: ErrLocked when another open file holds the lock,
	// errors.ErrUnsupported where the platform has no flock.  The returned
	// file is the one name names at the time of the lock; closing it, or
	// the death of the process, drops the lock.
	Lock(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory (the cache's open-time garbage collection).
	ReadDir(name string) ([]fs.DirEntry, error)
}

// osFS is the passthrough FS over the real filesystem.
type osFS struct{}

// MkdirAll implements FS.
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadFile implements FS.
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// CreateTemp implements FS.
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// Rename implements FS.
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (osFS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// OS returns the passthrough FS over the real filesystem.
func OS() FS { return osFS{} }
