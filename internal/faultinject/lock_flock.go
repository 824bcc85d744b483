//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package faultinject

import (
	"errors"
	"os"
	"syscall"
)

// Lock implements FS with flock(2).  A holder removes its lock file before
// closing it, so the file opened here may be unlinked, or replaced by a
// newer one, by the time its lock is granted; Lock then drops it and tries
// the file the path names now.
func (osFS) Lock(name string) (File, error) {
	for {
		f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := flock(f); err != nil {
			f.Close()
			return nil, err
		}
		held, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		named, err := os.Stat(name)
		if err == nil && os.SameFile(held, named) {
			return f, nil
		}
		f.Close()
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
}

// flock takes an exclusive lock on f without blocking.
func flock(f *os.File) error {
	for {
		switch err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err {
		case nil:
			return nil
		case syscall.EWOULDBLOCK:
			return ErrLocked
		case syscall.EINTR:
		default:
			return &os.PathError{Op: "flock", Path: f.Name(), Err: err}
		}
	}
}
