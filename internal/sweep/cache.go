package sweep

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/faultinject"
)

// Entry is one cached run: the simulator result plus any derived metrics,
// addressed by the job key.
type Entry struct {
	Key     Key              `json:"key"`
	Sim     *cmpsim.Result   `json:"sim"`
	Derived map[string]int64 `json:"derived,omitempty"`
}

// Cache memoises finished runs by content address.  Implementations must be
// safe for concurrent use by the engine's workers.
type Cache interface {
	Get(k Key) (Entry, bool)
	Put(e Entry) error
	// Stats reports the hit/miss counts observed by Get.
	Stats() (hits, misses int64)
}

// counters implements the Stats half of Cache.
type counters struct {
	hits, misses atomic.Int64
}

// Stats implements Cache.
func (c *counters) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// MemoryCache is an in-process map cache.
type MemoryCache struct {
	counters
	mu sync.RWMutex
	m  map[string]Entry
}

// NewMemoryCache returns an empty in-memory cache.
func NewMemoryCache() *MemoryCache {
	return &MemoryCache{m: make(map[string]Entry)}
}

// Get looks the key up.
func (c *MemoryCache) Get(k Key) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.m[k.Hash()]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Put stores the entry.
func (c *MemoryCache) Put(e Entry) error {
	c.mu.Lock()
	c.m[e.Key.Hash()] = e
	c.mu.Unlock()
	return nil
}

// Len returns the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// DiskCache persists entries as <hash>.json files under a directory, with an
// in-memory layer in front so repeated hits within a process do not re-read
// or re-parse files.  Entries written by earlier processes are picked up, so
// repeated sweeps across invocations are near-instant.
//
// Corrupt entries — truncated files from a killed writer, garbage from a
// damaged disk, an entry whose embedded key does not match its address, or
// one without a simulator result — are tolerated: Get logs (when a logger
// is set) and reports a miss, the job recomputes, and the following Put
// overwrites the bad file.  A shared disk cache therefore degrades to
// recomputation, never to failed jobs.
//
// Opening a cache garbage-collects the debris a crashed writer can leave
// behind: orphaned put-*.tmp files older than tempMaxAge, so a killed
// process never permanently poisons a cache directory.  A crashed lease
// holder's .lease file is left alone: it holds no lock, and the next claim
// of its key, if the key is still missing, reuses and removes it (see
// lease.go).
type DiskCache struct {
	counters
	dir string
	mem *MemoryCache
	fs  faultinject.FS

	logf func(format string, args ...any)

	gcTemps int
}

// DiskCacheOptions tune a DiskCache; the zero value is the default
// configuration NewDiskCache uses.
type DiskCacheOptions struct {
	// FS is the filesystem the cache operates through.  Nil means the real
	// filesystem; tests substitute a faultinject.Faulty to rehearse crashes
	// and I/O errors deterministically.
	FS faultinject.FS
	// Logf, when non-nil, receives corrupt-entry and garbage-collection
	// reports; nil keeps them silent.
	Logf func(format string, args ...any)
}

// tempMaxAge is the age beyond which an orphaned put-*.tmp file is
// collected on open: long enough that no live writer's temp file is ever
// collected, short enough that crash debris does not accumulate.
const tempMaxAge = time.Hour

// NewDiskCache creates the directory if needed and returns a cache over it
// with default options.
func NewDiskCache(dir string) (*DiskCache, error) {
	return NewDiskCacheWith(dir, DiskCacheOptions{})
}

// NewDiskCacheWith is NewDiskCache with explicit options.
func NewDiskCacheWith(dir string, opts DiskCacheOptions) (*DiskCache, error) {
	if opts.FS == nil {
		opts.FS = faultinject.OS()
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache dir: %w", err)
	}
	c := &DiskCache{dir: dir, mem: NewMemoryCache(), fs: opts.FS, logf: opts.Logf}
	c.gc()
	return c, nil
}

// gc sweeps crash debris out of the cache directory: orphaned temp files
// from writers that died mid-Put.  GC failures are logged and ignored — a
// cache that cannot clean up still works, the debris just waits for the
// next open.
func (c *DiskCache) gc() {
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		if c.logf != nil {
			c.logf("sweep: cache: gc: %v", err)
		}
		return
	}
	now := time.Now()
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "put-") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if age := now.Sub(info.ModTime()); age > tempMaxAge {
			path := filepath.Join(c.dir, name)
			if err := c.fs.Remove(path); err != nil {
				if c.logf != nil {
					c.logf("sweep: cache: gc: %v", err)
				}
				continue
			}
			c.gcTemps++
			if c.logf != nil {
				c.logf("sweep: cache: gc: removed %s (age %s)", path, age.Round(time.Second))
			}
		}
	}
}

// GCStats reports how many orphaned temp files the open-time garbage
// collection removed.
func (c *DiskCache) GCStats() (temps int) { return c.gcTemps }

// Dir returns the backing directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(k Key) string {
	return filepath.Join(c.dir, k.Hash()+".json")
}

// Get checks the memory layer, then the directory.  Unreadable or corrupt
// files are treated as misses (the entry is simply recomputed).
func (c *DiskCache) Get(k Key) (Entry, bool) {
	if e, ok := c.mem.Get(k); ok {
		c.hits.Add(1)
		return e, true
	}
	data, err := c.fs.ReadFile(c.path(k))
	if err != nil {
		c.misses.Add(1)
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		// Truncated or garbage file: miss, so the job recomputes and the
		// resulting Put overwrites the corrupt entry.
		if c.logf != nil {
			c.logf("sweep: cache: corrupt entry %s (%d bytes): %v; recomputing", c.path(k), len(data), err)
		}
		c.misses.Add(1)
		return Entry{}, false
	}
	if e.Key != k {
		// A parseable entry under the wrong address: either a foreign file
		// or an (astronomically unlikely) hash collision.
		if c.logf != nil {
			c.logf("sweep: cache: entry %s holds key %s, want %s; recomputing", c.path(k), e.Key, k)
		}
		c.misses.Add(1)
		return Entry{}, false
	}
	if e.Sim == nil {
		// A null or missing "sim": a hit would hand the engine a nil
		// result, whose row the CSV writer drops.
		if c.logf != nil {
			c.logf("sweep: cache: entry %s has no simulator result; recomputing", c.path(k))
		}
		c.misses.Add(1)
		return Entry{}, false
	}
	_ = c.mem.Put(e)
	c.hits.Add(1)
	return e, true
}

// Put writes the entry to the memory layer and then atomically (write to a
// temp file, rename) to the directory, so concurrent writers and readers
// never observe partial files.
func (c *DiskCache) Put(e Entry) error {
	if err := c.mem.Put(e); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("sweep: encode cache entry: %w", err)
	}
	tmp, err := c.fs.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		_ = c.fs.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = c.fs.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	if err := c.fs.Rename(tmp.Name(), c.path(e.Key)); err != nil {
		_ = c.fs.Remove(tmp.Name())
		return fmt.Errorf("sweep: cache write: %w", err)
	}
	return nil
}
