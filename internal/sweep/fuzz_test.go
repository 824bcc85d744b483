package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"testing"
	"time"

	"cmpsched/internal/obs"
)

// fuzzKey is the key FuzzDiskCacheGet stores every input under; the
// committed corpus in testdata/fuzz/FuzzDiskCacheGet embeds its JSON.
var fuzzKey = Key{Workload: "mergesort", Params: "{}", Scheduler: "pdf", Config: "{}"}

// FuzzDiskCacheGet hands DiskCache.Get arbitrary bytes as the entry file of
// fuzzKey.  Whatever the bytes, Get must not panic, and a hit must carry a
// simulator result and the requested key: the engine returns a hit as the
// job's result, and the CSV writer drops a row whose result is nil.
func FuzzDiskCacheGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.path(fuzzKey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if e, ok := c.Get(fuzzKey); ok && (e.Sim == nil || e.Key != fuzzKey) {
			t.Fatalf("hit with sim %v and key %+v from %q", e.Sim, e.Key, data)
		}
	})
}

// FuzzLeaseTakeover hands the lease protocol arbitrary bytes as the body of
// a stale lease on fuzzKey.  Whatever the bytes, Acquire must take the lease
// over, the lease file must then name this owner with a fencing token other
// than the body's (0 when the body does not decode, as readToken reads it),
// and Release must remove the file.  The committed corpus in
// testdata/fuzz/FuzzLeaseTakeover holds a valid record, truncated JSON,
// unknown fields, the largest token and an empty file.
func FuzzLeaseTakeover(f *testing.F) {
	const owner = "fuzz-owner"
	f.Fuzz(func(t *testing.T, body []byte) {
		dc, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		c := NewLeasedCache(dc, LeaseOptions{Owner: owner, TTL: time.Minute, Metrics: reg})
		path := c.leasePath(fuzzKey)
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		stale := time.Now().Add(-time.Hour)
		if err := os.Chtimes(path, stale, stale); err != nil {
			t.Fatal(err)
		}
		var old leaseRecord
		if json.Unmarshal(body, &old) != nil {
			old.Token = 0
		}

		_, ok, lease, err := c.Acquire(context.Background(), fuzzKey)
		if err != nil || ok || lease == nil {
			t.Fatalf("Acquire over stale lease %q: ok=%v lease=%v err=%v, want a takeover", body, ok, lease, err)
		}
		defer lease.Release()
		if n := reg.Counter("sweep.lease.takeovers").Value(); n != 1 {
			t.Fatalf("takeovers = %d after Acquire over %q, want 1", n, body)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var cur leaseRecord
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatalf("lease after takeover of %q does not decode: %v (%q)", body, err, data)
		}
		if cur.Owner != owner || cur.Token == old.Token {
			t.Fatalf("lease after takeover of %q = %+v, want owner %q and a token other than %d", body, cur, owner, old.Token)
		}

		lease.Release()
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("lease file after Release: %v, want it removed", err)
		}
	})
}
