package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestDiskCacheCorruptEntryLogsAndOverwrites pins the corruption-tolerance
// contract: a truncated or garbage entry file reads as a logged miss, the
// job recomputes, and the recomputation's Put overwrites the bad file so the
// next process hits again.
func TestDiskCacheCorruptEntryLogsAndOverwrites(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:1]
	key := jobs[0].Key

	seed, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	want, err := NewEngine(EngineOptions{Workers: 1, Cache: seed}).Run(jobs)
	if err != nil {
		t.Fatalf("seed run: %v", err)
	}

	for name, corrupt := range map[string][]byte{
		"truncated": []byte(`{"key":{"workload":"merges`),
		"garbage":   []byte("\x00\xff\x17 not json at all"),
	} {
		t.Run(name, func(t *testing.T) {
			path := seed.path(key)
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var logs []string
			c, err := NewDiskCacheWith(dir, DiskCacheOptions{Logf: func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}})
			if err != nil {
				t.Fatalf("NewDiskCacheWith: %v", err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("corrupt entry must miss")
			}
			if len(logs) != 1 || !strings.Contains(logs[0], "corrupt entry") {
				t.Fatalf("corrupt entry must be logged once, got %q", logs)
			}

			// The recomputation overwrites the corrupt file in place.
			got, err := NewEngine(EngineOptions{Workers: 1, Cache: c}).Run(jobs)
			if err != nil {
				t.Fatalf("recompute through corrupt cache: %v", err)
			}
			if got[0].Cached {
				t.Fatalf("corrupt entry must force a recomputation")
			}
			if got[0].Sim.Cycles != want[0].Sim.Cycles {
				t.Fatalf("recomputed cycles = %d, want %d", got[0].Sim.Cycles, want[0].Sim.Cycles)
			}
			fresh, err := NewDiskCache(dir)
			if err != nil {
				t.Fatalf("NewDiskCache: %v", err)
			}
			if _, ok := fresh.Get(key); !ok {
				t.Fatalf("recomputation must overwrite the corrupt entry")
			}
		})
	}
}

// TestDiskCacheWrongKeyEntryLogsAndMisses covers the other corruption shape:
// a parseable entry stored under an address whose key it does not match.
func TestDiskCacheWrongKeyEntryLogsAndMisses(t *testing.T) {
	dir := t.TempDir()
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:2]

	seed, err := NewDiskCache(dir)
	if err != nil {
		t.Fatalf("NewDiskCache: %v", err)
	}
	if _, err := NewEngine(EngineOptions{Workers: 1, Cache: seed}).Run(jobs); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	// Swap job 1's entry file under job 0's address.
	data, err := os.ReadFile(seed.path(jobs[1].Key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seed.path(jobs[0].Key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	c, err := NewDiskCacheWith(dir, DiskCacheOptions{Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatalf("NewDiskCacheWith: %v", err)
	}
	if _, ok := c.Get(jobs[0].Key); ok {
		t.Fatalf("mismatched entry must miss")
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "holds key") {
		t.Fatalf("mismatched entry must be logged once, got %q", logs)
	}
}

// TestDiskCacheSimlessEntryLogsAndOverwrites covers a third corruption
// shape: an entry that parses and carries the right key but whose simulator
// result is null or missing.  It must read as a logged miss, and the
// recomputation overwrites it.
func TestDiskCacheSimlessEntryLogsAndOverwrites(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	jobs = jobs[:1]
	key, err := json.Marshal(jobs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"null":    `{"key":` + string(key) + `,"sim":null}`,
		"missing": `{"key":` + string(key) + `}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var logs []string
			c, err := NewDiskCacheWith(dir, DiskCacheOptions{Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }})
			if err != nil {
				t.Fatalf("NewDiskCacheWith: %v", err)
			}
			if err := os.WriteFile(c.path(jobs[0].Key), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(jobs[0].Key); ok {
				t.Fatalf("entry without a simulator result must miss")
			}
			if len(logs) != 1 || !strings.Contains(logs[0], "no simulator result") {
				t.Fatalf("entry without a simulator result must be logged once, got %q", logs)
			}
			got, err := NewEngine(EngineOptions{Workers: 1, Cache: c}).Run(jobs)
			if err != nil {
				t.Fatalf("recompute: %v", err)
			}
			if got[0].Cached || got[0].Sim == nil {
				t.Fatalf("entry without a simulator result must force a recomputation")
			}
			fresh, err := NewDiskCache(dir)
			if err != nil {
				t.Fatalf("NewDiskCache: %v", err)
			}
			if e, ok := fresh.Get(jobs[0].Key); !ok || e.Sim == nil {
				t.Fatalf("recomputation must overwrite the entry")
			}
		})
	}
}

// TestRunContextCancelled asserts the cancellation contract at both worker
// shapes: an already-cancelled context runs nothing; a context cancelled
// after the first completed job stops feeding, keeps the completed results,
// and reports context.Canceled.
func TestRunContextCancelled(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d/pre-cancelled", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			results, err := NewEngine(EngineOptions{Workers: workers}).RunStreamContext(ctx, jobs, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			for _, r := range results {
				if r.Sim != nil {
					t.Fatalf("pre-cancelled run must not simulate, got %s", r.Key)
				}
			}
		})
		t.Run(fmt.Sprintf("workers=%d/mid-cancel", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex
			streamed := 0
			results, err := NewEngine(EngineOptions{Workers: workers}).RunStreamContext(ctx, jobs,
				func(i int, r Result) {
					mu.Lock()
					streamed++
					mu.Unlock()
					cancel()
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			done := 0
			for _, r := range results {
				if r.Sim != nil {
					done++
				}
			}
			if done == 0 || done == len(jobs) {
				t.Fatalf("mid-cancel completed %d of %d jobs, want a strict partial run", done, len(jobs))
			}
			if done != streamed {
				t.Fatalf("streamed %d results but %d are filled in", streamed, done)
			}
		})
	}
}
