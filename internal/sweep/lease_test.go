package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cmpsched/internal/cmpsim"
	"cmpsched/internal/faultinject"
	"cmpsched/internal/obs"
)

// testLeaseOptions gives each leased cache its own counters.
func testLeaseOptions() LeaseOptions {
	return LeaseOptions{Metrics: obs.NewRegistry()}
}

func testKey(n int) Key {
	return Key{Workload: "w", Params: fmt.Sprintf("p%d", n), Scheduler: "pdf", Config: "c"}
}

func testEntry(k Key) Entry {
	return Entry{Key: k, Sim: &cmpsim.Result{Cycles: 42}}
}

// TestLeaseSingleFlight: the first Acquire wins the lease, a concurrent
// second Acquire waits and adopts the entry the winner puts.
func TestLeaseSingleFlight(t *testing.T) {
	dir := t.TempDir()
	open := func() *LeasedCache {
		dc, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewLeasedCache(dc, testLeaseOptions())
	}
	a, b := open(), open()
	k := testKey(1)

	_, ok, lease, err := a.Acquire(context.Background(), k)
	if err != nil || ok || lease == nil {
		t.Fatalf("first acquire: ok=%v lease=%v err=%v, want a held lease", ok, lease, err)
	}

	adopted := make(chan Entry, 1)
	go func() {
		e, ok, l, err := b.Acquire(context.Background(), k)
		if err != nil || !ok || l != nil {
			t.Errorf("waiter: ok=%v lease=%v err=%v, want adoption", ok, l, err)
		}
		adopted <- e
	}()

	time.Sleep(30 * time.Millisecond) // let the waiter contend
	if err := a.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	lease.Release()

	select {
	case e := <-adopted:
		if e.Sim == nil || e.Sim.Cycles != 42 {
			t.Fatalf("adopted entry = %+v, want the put entry", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never adopted")
	}

	if got := b.lm.adopted.Value(); got != 1 {
		t.Fatalf("adopted counter = %d, want 1", got)
	}
	if got := a.lm.released.Value(); got != 1 {
		t.Fatalf("released counter = %d, want 1", got)
	}
	// The lease file must be gone after a clean release.
	if _, err := os.Stat(a.leasePath(k)); !os.IsNotExist(err) {
		t.Fatalf("lease file survived release: %v", err)
	}
}

// TestLeaseStaleTakeover: a lease file left behind by a dead holder holds
// no lock, so the next claim of its key takes it at once, without waiting,
// and removes it on release.
func TestLeaseStaleTakeover(t *testing.T) {
	dir := t.TempDir()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeasedCache(dc, testLeaseOptions())
	k := testKey(2)
	path := c.leasePath(k)
	if err := os.WriteFile(path, []byte("left by a dead holder"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ok, lease, err := c.Acquire(context.Background(), k)
	if err != nil || ok || lease == nil {
		t.Fatalf("acquire over a leftover lease file: ok=%v lease=%v err=%v", ok, lease, err)
	}
	if got := c.lm.contested.Value(); got != 0 {
		t.Fatalf("contested counter = %d, want 0 (an unlocked file is free)", got)
	}
	lease.Release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("leftover lease file survived release: %v", err)
	}
}

// TestLeaseCrashMidFlightRecovered rehearses the headline crash: a holder
// claims the lease, begins writing its entry, and dies mid-rename (SIGKILL
// semantics via faultinject).  A second instance must take the flight over
// at once and complete it, and a reopened cache must collect the debris.
func TestLeaseCrashMidFlightRecovered(t *testing.T) {
	dir := t.TempDir()
	k := testKey(4)

	// Instance 1 on a crashing filesystem: claims the lease, then dies at
	// its first rename (the entry Put), leaving lease + temp file behind.
	crashFS := faultinject.NewFaulty(faultinject.OS(), 1)
	crashFS.CrashAt(faultinject.OpRename, 1)
	dc1, err := NewDiskCacheWith(dir, DiskCacheOptions{FS: crashFS})
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewLeasedCache(dc1, testLeaseOptions())
	_, ok, lease1, err := c1.Acquire(context.Background(), k)
	if err != nil || ok || lease1 == nil {
		t.Fatalf("victim acquire: ok=%v lease=%v err=%v", ok, lease1, err)
	}
	if err := c1.Put(testEntry(k)); err == nil {
		t.Fatal("put should crash")
	}
	if !crashFS.Crashed() {
		t.Fatal("filesystem not crashed")
	}
	// The victim is dead: no Release, and the kernel closes its files,
	// which drops the lock and leaves the lease file behind.
	lease1.f.Close()

	// Instance 2 on the real filesystem claims the dead holder's lease at
	// once and completes the flight.
	dc2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewLeasedCache(dc2, testLeaseOptions())
	_, ok, lease2, err := c2.Acquire(context.Background(), k)
	if err != nil || ok || lease2 == nil {
		t.Fatalf("survivor acquire: ok=%v lease=%v err=%v, want a held lease", ok, lease2, err)
	}
	if got := c2.lm.contested.Value(); got != 0 {
		t.Fatalf("contested counter = %d, want 0 (the dead holder's lock is gone)", got)
	}
	if err := c2.Put(testEntry(k)); err != nil {
		t.Fatal(err)
	}
	lease2.Release()
	if e, ok := c2.Get(k); !ok || e.Sim.Cycles != 42 {
		t.Fatalf("entry missing after recovery: %+v ok=%v", e, ok)
	}

	// The crash left a put-*.tmp orphan; once it is older than the GC
	// horizon, a reopened cache must sweep it.  The survivor's release
	// removed the lease file.
	debris, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	for _, ent := range debris {
		if name := ent.Name(); strings.HasSuffix(name, ".tmp") {
			if err := os.Chtimes(filepath.Join(dir, name), old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	dc3, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if temps := dc3.GCStats(); temps != 1 {
		t.Fatalf("gc collected %d temp files, want 1", temps)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") || strings.HasSuffix(ent.Name(), leaseSuffix) {
			t.Fatalf("debris survived gc: %s", ent.Name())
		}
	}
}

// leaseHolderEnv names the cache directory in which a re-executed test
// binary holds a lease until it is killed (TestLeaseDiesWithItsHolder).
const leaseHolderEnv = "SWEEP_TEST_LEASE_HOLDER_DIR"

// TestLeaseDiesWithItsHolder: a lease lasts exactly as long as its holder's
// process.  The test binary re-runs itself as a holder; while the holder
// lives a waiter must not get the lease, and once it is SIGKILLed, with no
// Release, a waiter must get the lease within a second.
func TestLeaseDiesWithItsHolder(t *testing.T) {
	k := testKey(9)
	if dir := os.Getenv(leaseHolderEnv); dir != "" {
		dc, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, lease, err := NewLeasedCache(dc, LeaseOptions{}).Acquire(context.Background(), k); lease == nil {
			t.Fatalf("holder got no lease: %v", err)
		}
		fmt.Println("held")
		time.Sleep(time.Minute) // until killed
		return
	}
	dir := t.TempDir()
	probe, err := faultinject.OS().Lock(filepath.Join(dir, "probe"))
	if err != nil {
		t.Skipf("no file locks: %v", err)
	}
	probe.Close()

	holder := exec.Command(os.Args[0], "-test.run=^TestLeaseDiesWithItsHolder$")
	holder.Env = append(os.Environ(), leaseHolderEnv+"="+dir)
	holder.Stderr = os.Stderr
	out, err := holder.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}
	defer holder.Wait()
	defer holder.Process.Kill()
	held := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if sc.Text() == "held" {
				held <- true
				return
			}
		}
		held <- false
	}()
	select {
	case ok := <-held:
		if !ok {
			t.Fatal("the holder process exited without its lease")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the holder process never took its lease")
	}

	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeasedCache(dc, testLeaseOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, _, lease, err := c.Acquire(ctx, k)
	cancel()
	if lease != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire against a live holder: lease=%v err=%v, want the deadline", lease, err)
	}

	if err := holder.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = holder.Wait() // killed: the exit status is the signal
	start := time.Now()
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, _, lease, err = c.Acquire(ctx, k)
	if lease == nil {
		t.Fatalf("no lease %v after the holder was killed: %v", time.Since(start), err)
	}
	lease.Release()
}

// TestLeaseAcquireDegradesOnIOErrors: lease-protocol I/O failures must fall
// back to uncoordinated simulation (nil lease, nil error), never fail the
// job.
func TestLeaseAcquireDegradesOnIOErrors(t *testing.T) {
	dir := t.TempDir()
	faulty := faultinject.NewFaulty(faultinject.OS(), 1)
	dc, err := NewDiskCacheWith(dir, DiskCacheOptions{FS: faulty})
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeasedCache(dc, testLeaseOptions())
	// OpCreate call 1 was the cache's MkdirAll; call 2 is the lock.
	faulty.FailAt(faultinject.OpCreate, 2, nil)

	_, ok, lease, err := c.Acquire(context.Background(), testKey(5))
	if err != nil || ok || lease != nil {
		t.Fatalf("degraded acquire: ok=%v lease=%v err=%v, want (false, nil, nil)", ok, lease, err)
	}
	if got := c.lm.errors.Value(); got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
}

// claimRaceFS passes every call through, except that just before the first
// lock of a lease file it runs race: the window between Acquire's entry
// check and its claim, in which another instance can land the entry and
// release its lease.
type claimRaceFS struct {
	faultinject.FS
	once sync.Once
	race func()
}

// Lock implements faultinject.FS.
func (f *claimRaceFS) Lock(name string) (faultinject.File, error) {
	f.once.Do(f.race)
	return f.FS.Lock(name)
}

// TestLeaseClaimRechecksEntry: an entry that another instance puts between
// Acquire's entry check and its lease claim must be adopted, not handed out
// as a fresh flight that simulates the key a second time.
func TestLeaseClaimRechecksEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey(7)
	other, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	raceFS := &claimRaceFS{FS: faultinject.OS(), race: func() {
		if err := other.Put(testEntry(k)); err != nil {
			t.Error(err)
		}
	}}
	dc, err := NewDiskCacheWith(dir, DiskCacheOptions{FS: raceFS})
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeasedCache(dc, testLeaseOptions())
	e, ok, lease, err := c.Acquire(context.Background(), k)
	if lease != nil {
		lease.Release()
	}
	if err != nil || !ok || lease != nil {
		t.Fatalf("acquire: ok=%v lease=%v err=%v, want adoption of the raced entry", ok, lease, err)
	}
	if e.Sim == nil || e.Sim.Cycles != 42 {
		t.Fatalf("adopted entry = %+v, want the raced entry", e)
	}
	if got := c.lm.adopted.Value(); got != 1 {
		t.Fatalf("adopted counter = %d, want 1", got)
	}
	if got := c.lm.acquired.Value(); got != 0 {
		t.Fatalf("acquired counter = %d, want 0", got)
	}
	if _, err := os.Stat(c.leasePath(k)); !os.IsNotExist(err) {
		t.Fatalf("lease file survived adoption: %v", err)
	}
}

// TestLeaseAcquireHonoursContext: a waiter blocked on a live holder's lease
// returns promptly when its context is cancelled.
func TestLeaseAcquireHonoursContext(t *testing.T) {
	dir := t.TempDir()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewLeasedCache(dc, testLeaseOptions())
	k := testKey(6)
	_, _, lease, err := c.Acquire(context.Background(), k)
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v", err)
	}
	defer lease.Release()

	c2 := NewLeasedCache(dc, testLeaseOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, _, err = c2.Acquire(ctx, k)
	if err == nil {
		t.Fatal("cancelled waiter should return the context error")
	}
}

// TestTwoEnginesShareOneCacheDir is the tentpole's in-process end-to-end:
// two engines, each its own LeasedCache instance over one directory, run the
// same sweep concurrently under -race.  The merged results must be identical
// to a solo run, and the flights must be disjoint — the total number of
// actual simulations across both instances equals the number of distinct
// keys.
func TestTwoEnginesShareOneCacheDir(t *testing.T) {
	jobs, err := testSpec().Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: a solo run with no cache at all.
	want, err := NewEngine(EngineOptions{Workers: 2}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	type instance struct {
		reg     *obs.Registry
		results []Result
	}
	insts := make([]*instance, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range insts {
		inst := &instance{reg: obs.NewRegistry()}
		insts[i] = inst
		dc, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		lc := NewLeasedCache(dc, LeaseOptions{Metrics: inst.reg})
		eng := NewEngine(EngineOptions{Workers: 2, Cache: lc, Metrics: inst.reg})
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			insts[idx].results, errs[idx] = eng.Run(jobs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}

	var simulated int64
	for i, inst := range insts {
		if got := stripVariance(inst.results); !reflect.DeepEqual(got, stripVariance(want)) {
			t.Fatalf("instance %d results diverge from the solo run", i)
		}
		vals := make(map[string]int64)
		for _, s := range inst.reg.Snapshot() {
			vals[s.Name] = s.Value
		}
		simulated += vals["sweep.jobs"] - vals["sweep.jobs_cached"]
	}
	distinct := make(map[string]bool)
	for _, j := range jobs {
		distinct[j.Key.Hash()] = true
	}
	if simulated != int64(len(distinct)) {
		t.Fatalf("the two instances simulated %d jobs, want exactly %d (one per distinct key, zero duplicates)",
			simulated, len(distinct))
	}

	// No lease files survive a clean sweep.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), leaseSuffix) {
			t.Fatalf("lease debris after clean runs: %s", filepath.Join(dir, ent.Name()))
		}
	}
}
