package sweep

import (
	"os"
	"testing"
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
