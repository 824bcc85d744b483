package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cmpsched/internal/obs"
	"cmpsched/internal/prng"
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

// leaseRecord is the JSON body of a lease file.  The file's mtime — not the
// body — is the heartbeat: holders refresh it with Chtimes, and waiters
// declare the lease stale when the mtime falls more than TTL behind.
type leaseRecord struct {
	// Owner is the claiming instance's unique identity.
	Owner string `json:"owner"`
	// Token is the fencing token, incremented on every takeover: a release
	// by an owner whose token is no longer current is refused, so a
	// descheduled zombie can never delete its successor's lease.
	Token uint64 `json:"token"`
	// AcquiredUnixNS records when the claim succeeded (diagnostic only).
	AcquiredUnixNS int64 `json:"acquired_unix_ns"`
}

// LeaseOptions configure a LeasedCache.
type LeaseOptions struct {
	// Owner is this instance's unique identity.  Empty derives
	// host:pid:<random> — distinct per process, stable within it.
	Owner string
	// TTL is the staleness bound: a lease whose mtime is older than TTL is
	// considered abandoned and eligible for takeover.  Zero means 10s.  The
	// holder refreshes the mtime every TTL/4, keeping several missed beats
	// between liveness and takeover; a waiter re-checks a contested key
	// every leasePoll, whatever the TTL.
	TTL time.Duration
	// Metrics, when non-nil, receives the sweep.lease.* counters.
	Metrics *obs.Registry
	// Logf, when non-nil, receives one line per degradation (I/O failures
	// in the lease protocol) and takeover.
	Logf func(format string, args ...any)
}

// leasePoll is how often a waiter re-checks a contested key for the entry or
// a stale lease.
const leasePoll = 25 * time.Millisecond

// withDefaults fills the zero fields.
func (o LeaseOptions) withDefaults() LeaseOptions {
	if o.Owner == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "unknown"
		}
		o.Owner = fmt.Sprintf("%s:%d:%08x", host, os.Getpid(),
			prng.Mix64(uint64(time.Now().UnixNano()))&0xffffffff)
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Second
	}
	return o
}

// leaseMetrics are the sweep.lease.* counters.
type leaseMetrics struct {
	acquired  *obs.Counter // flights claimed first try
	contested *obs.Counter // acquires that found another holder
	adopted   *obs.Counter // acquires resolved by adopting another instance's entry
	takeovers *obs.Counter // stale leases fenced and reclaimed
	released  *obs.Counter // clean releases by the owner
	fenced    *obs.Counter // releases refused because the lease moved on
	errors    *obs.Counter // protocol I/O failures (degraded to uncoordinated)
}

func newLeaseMetrics(reg *obs.Registry) leaseMetrics {
	return leaseMetrics{
		acquired:  reg.Counter("sweep.lease.acquired"),
		contested: reg.Counter("sweep.lease.contested"),
		adopted:   reg.Counter("sweep.lease.adopted"),
		takeovers: reg.Counter("sweep.lease.takeovers"),
		released:  reg.Counter("sweep.lease.released"),
		fenced:    reg.Counter("sweep.lease.fenced"),
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
// The protocol is lease files next to the cache entries.  Before simulating
// a missed key, an instance claims <hash>.lease with an atomic
// O_CREATE|O_EXCL create naming its owner identity and a fencing token; the
// winner simulates while heartbeating the file's mtime, writes the entry,
// and releases the lease.  Losers wait, polling for either the entry (adopt
// it — the cross-process analogue of sweepsvc's single-flight subscription)
// or the lease going stale (mtime more than TTL old: the holder crashed),
// in which case they take over by atomically replacing the lease with an
// incremented fencing token and re-verifying ownership.  Every failure mode
// degrades toward recomputation, never toward a failed or stuck job: lease
// I/O errors simply fall back to uncoordinated simulation (duplicated work
// is a cost, not a correctness problem — entries are content-addressed
// results of deterministic simulations, so concurrent writers write
// identical rows), and crashed holders are recovered by takeover plus the
// DiskCache's open-time garbage collection.
type LeasedCache struct {
	dc   *DiskCache
	opts LeaseOptions
	lm   leaseMetrics
}

// NewLeasedCache wraps a DiskCache with the lease protocol.
func NewLeasedCache(dc *DiskCache, opts LeaseOptions) *LeasedCache {
	return &LeasedCache{dc: dc, opts: opts.withDefaults(), lm: newLeaseMetrics(opts.Metrics)}
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
// (another instance finished — adopt), the claim succeeds and the entry is
// still absent when re-read under the lease (simulate under the returned
// lease), the protocol hits an I/O error (degrade: simulate uncoordinated),
// or ctx is cancelled.
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
		lease, state, err := c.tryClaim(path, k)
		if err != nil {
			c.lm.errors.Add(1)
			c.logf("sweep: lease: %s: %v; simulating uncoordinated", k, err)
			return Entry{}, false, nil, nil
		}
		if lease != nil {
			// The entry can land between the Get above and the claim: a
			// holder that Puts and releases in that window leaves the
			// exclusive create free.  Re-read under the lease so a finished
			// key is adopted, never simulated twice.
			if e, ok := c.dc.Get(k); ok {
				lease.Release()
				c.lm.adopted.Add(1)
				return e, true, nil, nil
			}
			if state == claimTakeover {
				c.lm.takeovers.Add(1)
				c.logf("sweep: lease: %s: took over a stale lease (token %d)", k, lease.token)
			} else {
				c.lm.acquired.Add(1)
			}
			return Entry{}, false, lease, nil
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

// claimState reports how tryClaim obtained (or failed to obtain) the lease.
type claimState int

const (
	claimContested claimState = iota // a live holder owns the lease
	claimFresh                       // claimed with an exclusive create
	claimTakeover                    // claimed by fencing a stale lease
)

// tryClaim makes one attempt at the lease: exclusive create first, then —
// if the lease exists and its heartbeat is stale — the fencing takeover.
// (nil, claimContested, nil) means a live holder has it.
func (c *LeasedCache) tryClaim(path string, k Key) (*Lease, claimState, error) {
	rec := leaseRecord{Owner: c.opts.Owner, Token: 1, AcquiredUnixNS: time.Now().UnixNano()}
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, 0, err
	}
	f, err := c.dc.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		if _, werr := f.Write(body); werr != nil {
			f.Close()
			_ = c.dc.fs.Remove(path)
			return nil, 0, werr
		}
		if cerr := f.Close(); cerr != nil {
			_ = c.dc.fs.Remove(path)
			return nil, 0, cerr
		}
		return c.startLease(path, k, rec), claimFresh, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return nil, 0, err
	}

	// Held: fresh or stale?
	st, err := c.dc.fs.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		// Released between our create and stat: contend again immediately.
		return nil, claimContested, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if time.Since(st.ModTime()) <= c.opts.TTL {
		return nil, claimContested, nil
	}

	// Stale: fence it.  Read the old token, write a replacement lease with
	// token+1 via atomic rename, then re-read to see who actually won — two
	// concurrent takeovers both rename, but the file ends up with exactly
	// one body, and the loser backs off to contention.  (The remaining
	// window — a reader verifying between two renames — can at worst cause
	// one duplicated simulation, never a wrong result.)
	rec.Token = c.readToken(path) + 1
	rec.AcquiredUnixNS = time.Now().UnixNano()
	if body, err = json.Marshal(rec); err != nil {
		return nil, 0, err
	}
	tmp, err := c.dc.fs.CreateTemp(c.dc.Dir(), "lease-*.tmp")
	if err != nil {
		return nil, 0, err
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		_ = c.dc.fs.Remove(tmp.Name())
		return nil, 0, err
	}
	if err := tmp.Close(); err != nil {
		_ = c.dc.fs.Remove(tmp.Name())
		return nil, 0, err
	}
	if err := c.dc.fs.Rename(tmp.Name(), path); err != nil {
		_ = c.dc.fs.Remove(tmp.Name())
		return nil, 0, err
	}
	cur, ok := c.readRecord(path)
	if !ok || cur.Owner != rec.Owner || cur.Token != rec.Token {
		return nil, claimContested, nil
	}
	return c.startLease(path, k, rec), claimTakeover, nil
}

// readToken reads the fencing token of an existing lease (0 when
// unreadable, so the successor still moves the token forward).
func (c *LeasedCache) readToken(path string) uint64 {
	rec, ok := c.readRecord(path)
	if !ok {
		return 0
	}
	return rec.Token
}

// readRecord reads and decodes a lease file.
func (c *LeasedCache) readRecord(path string) (leaseRecord, bool) {
	data, err := c.dc.fs.ReadFile(path)
	if err != nil {
		return leaseRecord{}, false
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return leaseRecord{}, false
	}
	return rec, true
}

// startLease constructs the held-lease handle and starts its heartbeat.
func (c *LeasedCache) startLease(path string, k Key, rec leaseRecord) *Lease {
	l := &Lease{
		c:     c,
		key:   k,
		path:  path,
		owner: rec.Owner,
		token: rec.Token,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go l.heartbeat(c.opts.TTL / 4)
	return l
}

// Lease is a held per-key flight claim: the right to simulate one missed
// key on behalf of every instance sharing the cache directory.  The holder
// heartbeats the lease file's mtime in the background; Release (always call
// it, typically deferred) stops the heartbeat and removes the lease — but
// only if this holder still owns it, so a holder that was fenced during a
// long stall cannot delete its successor's claim.
type Lease struct {
	c     *LeasedCache
	key   Key
	path  string
	owner string
	token uint64
	stop  chan struct{}
	done  chan struct{}
	lost  atomic.Bool
}

// heartbeat refreshes the lease file's mtime every interval, re-verifying
// ownership as it goes; it exits on Release or on discovering the lease was
// fenced away.
func (l *Lease) heartbeat(interval time.Duration) {
	defer close(l.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			rec, ok := l.c.readRecord(l.path)
			if !ok || rec.Owner != l.owner || rec.Token != l.token {
				l.lost.Store(true)
				return
			}
			now := time.Now()
			if err := l.c.dc.fs.Chtimes(l.path, now, now); err != nil {
				// The file vanished or the disk broke: either way we can no
				// longer assert liveness.  Mark lost so Release skips the
				// delete; the flight itself continues to a valid result.
				l.lost.Store(true)
				return
			}
		}
	}
}

// Release ends the flight: it stops the heartbeat and deletes the lease
// file if this holder still owns it.  Callers Release after Put, so waiters
// observe the entry before the lease disappears (they adopt rather than
// re-claim).  Release is idempotent.
func (l *Lease) Release() {
	select {
	case <-l.stop:
		// Already released.
		return
	default:
	}
	close(l.stop)
	<-l.done
	if l.lost.Load() {
		l.c.lm.fenced.Add(1)
		return
	}
	rec, ok := l.c.readRecord(l.path)
	if !ok || rec.Owner != l.owner || rec.Token != l.token {
		l.c.lm.fenced.Add(1)
		return
	}
	if err := l.c.dc.fs.Remove(l.path); err != nil {
		l.c.lm.errors.Add(1)
		l.c.logf("sweep: lease: %s: release: %v", l.key, err)
		return
	}
	l.c.lm.released.Add(1)
}
