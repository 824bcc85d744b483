package faultinject

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"

	"cmpsched/internal/prng"
)

// Op names one class of filesystem operation for fault scheduling.
type Op string

// The fault-schedulable operation classes.  OpWrite covers File.Write on
// files returned by CreateTemp; the others map onto FS methods.
const (
	// OpRead is ReadFile.
	OpRead Op = "read"
	// OpWrite is File.Write.
	OpWrite Op = "write"
	// OpCreate is MkdirAll, CreateTemp and Lock.
	OpCreate Op = "create"
	// OpRename is Rename — the commit point of the atomic-write protocol.
	OpRename Op = "rename"
	// OpRemove is Remove.
	OpRemove Op = "remove"
	// OpReadDir is ReadDir.
	OpReadDir Op = "readdir"
)

// ErrInjected is the injected I/O failure (the harness's EIO).
var ErrInjected = errors.New("faultinject: injected I/O error")

// ErrCrashed reports an operation attempted after the simulated process
// crash: every operation on a crashed Faulty fails with it, so cleanup code
// paths (remove-on-error, lease release) are suppressed exactly as a real
// SIGKILL would suppress them.
var ErrCrashed = errors.New("faultinject: process crashed")

// Faulty wraps an FS with a deterministic fault schedule.  Two mechanisms
// compose: per-operation-class probabilistic faults driven by a seeded
// splitmix64 stream (SetRate), and exact triggers naming the nth call of a
// class (FailAt, CrashAt).  A triggered OpWrite performs a partial write
// (half the buffer reaches the inner file) before failing; a CrashAt trigger
// additionally freezes the whole filesystem in the crashed state, leaving
// temp files, unrenamed entries and unreleased leases behind for recovery
// code to find.  All methods are safe for concurrent use; the probabilistic
// stream is consumed under a mutex, so a single-goroutine caller sees a
// fully reproducible schedule.
type Faulty struct {
	mu       sync.Mutex
	inner    FS
	rng      prng.SplitMix64
	rates    map[Op]uint64 // threshold in [0, 2^64): fault when next() < threshold
	failAt   map[Op]map[int]error
	crashAt  map[Op]map[int]bool
	counts   map[Op]int
	injected map[Op]int
	crashed  bool
}

// NewFaulty wraps inner with an empty fault schedule seeded for the
// probabilistic stream.
func NewFaulty(inner FS, seed uint64) *Faulty {
	return &Faulty{
		inner:    inner,
		rng:      prng.SplitMix64{State: seed},
		rates:    make(map[Op]uint64),
		failAt:   make(map[Op]map[int]error),
		crashAt:  make(map[Op]map[int]bool),
		counts:   make(map[Op]int),
		injected: make(map[Op]int),
	}
}

// SetRate makes a fraction rate (0 to 1) of future op calls fail with
// ErrInjected, decided by the seeded stream.
func (f *Faulty) SetRate(op Op, rate float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rates[op] = rateThreshold(rate)
}

// rateThreshold maps a probability to a uint64 comparison threshold.
func rateThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// FailAt makes the nth future call (1-based, counted from construction) of
// op fail with err (ErrInjected when err is nil).
func (f *Faulty) FailAt(op Op, nth int, err error) {
	if err == nil {
		err = ErrInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAt[op] == nil {
		f.failAt[op] = make(map[int]error)
	}
	f.failAt[op][nth] = err
}

// CrashAt makes the nth call (1-based) of op crash the simulated process:
// the call fails with ErrCrashed without reaching the inner filesystem, and
// every subsequent operation fails the same way.  CrashAt(OpRename, n) is
// the canonical "writer died between temp write and commit" schedule.
func (f *Faulty) CrashAt(op Op, nth int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashAt[op] == nil {
		f.crashAt[op] = make(map[int]bool)
	}
	f.crashAt[op][nth] = true
}

// Crashed reports whether the simulated process has crashed.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Counts returns per-class operation counts (including faulted calls).
func (f *Faulty) Counts() map[Op]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Op]int, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// Injected returns per-class injected-fault counts.
func (f *Faulty) Injected() map[Op]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[Op]int, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// check runs one op through the schedule, returning the injected error (if
// any) for this call.
func (f *Faulty) check(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	f.counts[op]++
	n := f.counts[op]
	if f.crashAt[op][n] {
		f.crashed = true
		f.injected[op]++
		return ErrCrashed
	}
	if err, ok := f.failAt[op][n]; ok {
		f.injected[op]++
		return err
	}
	if th := f.rates[op]; th > 0 && f.rng.Next() < th {
		f.injected[op]++
		return ErrInjected
	}
	return nil
}

// MkdirAll implements FS.
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.check(OpCreate); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadFile implements FS.
func (f *Faulty) ReadFile(name string) ([]byte, error) {
	if err := f.check(OpRead); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

// CreateTemp implements FS.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if err := f.check(OpCreate); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{f: f, inner: file}, nil
}

// Lock implements FS; it counts as OpCreate.  The locked file comes back
// unwrapped: nothing writes it, and closing it drops the lock, as the
// kernel does when a crashed process dies.
func (f *Faulty) Lock(name string) (File, error) {
	if err := f.check(OpCreate); err != nil {
		return nil, err
	}
	return f.inner.Lock(name)
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	if err := f.check(OpRename); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *Faulty) Remove(name string) error {
	if err := f.check(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// ReadDir implements FS.
func (f *Faulty) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.check(OpReadDir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

// faultyFile routes writes through the parent's schedule.
type faultyFile struct {
	f     *Faulty
	inner File
}

// Write implements File: an injected fault writes half the buffer through
// (a partial write) and then fails.
func (w *faultyFile) Write(p []byte) (int, error) {
	if err := w.f.check(OpWrite); err != nil {
		if errors.Is(err, ErrCrashed) {
			return 0, err
		}
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("partial write of %s: %w", w.inner.Name(), err)
	}
	return w.inner.Write(p)
}

// Close implements File; a crashed filesystem refuses even Close, so the
// file stays exactly as the dead process left it.
func (w *faultyFile) Close() error {
	if w.f.Crashed() {
		return ErrCrashed
	}
	return w.inner.Close()
}

// Name implements File.
func (w *faultyFile) Name() string { return w.inner.Name() }
