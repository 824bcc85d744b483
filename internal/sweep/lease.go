package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"time"

	"cmpsched/internal/faultinject"
	"cmpsched/internal/obs"
)

// leaseSuffix is the lease-file extension next to <hash>.json entries.
const leaseSuffix = ".lease"

// FlightCache is the optional single-flight extension of Cache: a cache
// whose misses can be coordinated across processes.  After a Get miss the
// engine calls Acquire, which returns either the entry (another instance
// finished it while we coordinated — the adopt path), or a held Lease that
// grants this process the right to simulate the key (released after Put),
// or neither when coordination is unavailable and the caller should simulate
// uncoordinated.  See LeasedCache.
type FlightCache interface {
	Cache
	// Acquire coordinates one key: (entry, true, nil, nil) adopts a result
	// another instance computed, (_, false, lease, nil) grants this process
	// the flight, (_, false, nil, nil) degrades to uncoordinated
	// simulation, and a non-nil error reports ctx cancellation.
	Acquire(ctx context.Context, k Key) (Entry, bool, *Lease, error)
}

// LeaseOptions configure a LeasedCache.
type LeaseOptions struct {
	// Metrics, when non-nil, receives the sweep.lease.* counters.
	Metrics *obs.Registry
	// Logf, when non-nil, receives one line per degradation (an I/O
	// failure in the lease protocol).
	Logf func(format string, args ...any)
}

// leasePoll is how often a waiter re-checks a contested key for the entry or
// a free lease.
const leasePoll = 25 * time.Millisecond

// leaseMetrics are the sweep.lease.* counters.
type leaseMetrics struct {
	acquired  *obs.Counter // flights claimed
	contested *obs.Counter // acquires that found another holder
	adopted   *obs.Counter // acquires resolved by adopting another instance's entry
	released  *obs.Counter // clean releases by the holder
	errors    *obs.Counter // protocol I/O failures (degraded to uncoordinated)
}

func newLeaseMetrics(reg *obs.Registry) leaseMetrics {
	return leaseMetrics{
		acquired:  reg.Counter("sweep.lease.acquired"),
		contested: reg.Counter("sweep.lease.contested"),
		adopted:   reg.Counter("sweep.lease.adopted"),
		released:  reg.Counter("sweep.lease.released"),
		errors:    reg.Counter("sweep.lease.errors"),
	}
}

// LeasedCache adds crash-safe cross-process single-flight to a DiskCache: a
// fleet of sweepd processes (or other programs that wrap their DiskCache in
// a LeasedCache) sharing one cache directory each simulate a disjoint subset
// of any overlapping key sets.  cmd/sweep opens a plain DiskCache: a CLI run
// on a fleet's directory shares its entries but takes no leases, so it may
// repeat a simulation the fleet is running.
//
// A lease is an exclusive flock(2) on <hash>.lease next to the cache entry.
// Before simulating a missed key, an instance locks that file without
// blocking; the winner simulates, writes the entry, and releases the lease.
// Losers wait, polling for either the entry (adopt it — the cross-process
// analogue of sweepsvc's single-flight subscription) or a free lock.  The
// kernel drops a lock when its holder's process dies, so a crashed holder's
// key is claimed by the next poll, and the lease file it left behind is
// reused by that claim.  A holder that is alive but paused keeps its lease.
// Every lease I/O failure, and a platform without flock, degrades to
// uncoordinated simulation: duplicated work is a cost, not a correctness
// problem, because entries are content-addressed results of deterministic
// simulations, so concurrent writers write identical rows.
type LeasedCache struct {
	dc   *DiskCache
	opts LeaseOptions
	lm   leaseMetrics
}

// NewLeasedCache wraps a DiskCache with the lease protocol.
func NewLeasedCache(dc *DiskCache, opts LeaseOptions) *LeasedCache {
	return &LeasedCache{dc: dc, opts: opts, lm: newLeaseMetrics(opts.Metrics)}
}

// Get implements Cache by delegating to the wrapped DiskCache.
func (c *LeasedCache) Get(k Key) (Entry, bool) { return c.dc.Get(k) }

// Put implements Cache by delegating to the wrapped DiskCache.
func (c *LeasedCache) Put(e Entry) error { return c.dc.Put(e) }

// Stats implements Cache by delegating to the wrapped DiskCache.
func (c *LeasedCache) Stats() (hits, misses int64) { return c.dc.Stats() }

// logf logs through the configured logger.
func (c *LeasedCache) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// leasePath returns the lease file path for a key.
func (c *LeasedCache) leasePath(k Key) string {
	return filepath.Join(c.dc.Dir(), k.Hash()+leaseSuffix)
}

// Acquire implements FlightCache.  It loops until one of: the entry appears
// (another instance finished — adopt), the lock is taken and the entry is
// still absent when re-read under it (simulate under the returned lease),
// the lock fails with anything but contention (degrade: simulate
// uncoordinated), or ctx is cancelled.
func (c *LeasedCache) Acquire(ctx context.Context, k Key) (Entry, bool, *Lease, error) {
	path := c.leasePath(k)
	contested := false
	for {
		if e, ok := c.dc.Get(k); ok {
			if contested {
				c.lm.adopted.Add(1)
			}
			return e, true, nil, nil
		}
		f, err := c.dc.fs.Lock(path)
		if err == nil {
			lease := &Lease{c: c, key: k, f: f}
			// The entry can land between the Get above and the lock: a
			// holder that Puts and releases in that window leaves the lock
			// free.  Re-read under the lease so a finished key is adopted,
			// never simulated twice.
			if e, ok := c.dc.Get(k); ok {
				lease.Release()
				c.lm.adopted.Add(1)
				return e, true, nil, nil
			}
			c.lm.acquired.Add(1)
			return Entry{}, false, lease, nil
		}
		if !errors.Is(err, faultinject.ErrLocked) {
			c.lm.errors.Add(1)
			c.logf("sweep: lease: %s: %v; simulating uncoordinated", k, err)
			return Entry{}, false, nil, nil
		}
		if !contested {
			contested = true
			c.lm.contested.Add(1)
		}
		select {
		case <-ctx.Done():
			return Entry{}, false, nil, ctx.Err()
		case <-time.After(leasePoll):
		}
	}
}

// Lease is a held per-key flight claim: the right to simulate one missed
// key on behalf of every instance sharing the cache directory.  It is the
// open, locked lease file; Release (always call it, typically deferred)
// ends it.
type Lease struct {
	c   *LeasedCache
	key Key
	f   faultinject.File
}

// Release ends the flight: it removes the lease file and then closes it,
// which drops the lock.  Removing first means no other instance can open
// the released file by its path: one that opened it earlier gets its lock
// only after the path is gone and tries again.  Callers Release after Put,
// so waiters observe the entry before the lock drops (they adopt rather
// than re-claim).  Release is idempotent.
func (l *Lease) Release() {
	if l.f == nil {
		return
	}
	if err := l.c.dc.fs.Remove(l.f.Name()); err != nil {
		l.c.lm.errors.Add(1)
		l.c.logf("sweep: lease: %s: release: %v", l.key, err)
	} else {
		l.c.lm.released.Add(1)
	}
	l.f.Close()
	l.f = nil
}
