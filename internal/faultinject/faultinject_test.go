package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	fsys := OS()
	if err := fsys.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "final")
	if err := fsys.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(dst)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir = %d entries, %v", len(ents), err)
	}
	if err := fsys.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

// TestLockExcludesUntilClosed: while one open file holds a path's lock,
// Lock fails with ErrLocked, through a Faulty too, where it counts as a
// create; once the holder removes and closes its file the next Lock takes a
// fresh file at the path.
func TestLockExcludesUntilClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.lease")
	held, err := OS().Lock(path)
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("no flock(2) on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewFaulty(OS(), 1)
	if _, err := faulty.Lock(path); !errors.Is(err, ErrLocked) {
		t.Fatalf("Lock of a held file = %v, want ErrLocked", err)
	}
	if got := faulty.Counts()[OpCreate]; got != 1 {
		t.Fatalf("Faulty.Lock counted %d creates, want 1", got)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := faulty.Lock(path)
	if err != nil {
		t.Fatalf("Lock after the holder closed: %v", err)
	}
	defer next.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Lock did not create the file: %v", err)
	}
}

func TestFailAtExactTrigger(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.FailAt(OpRead, 2, nil)
	path := filepath.Join(dir, "x")
	if err := os.WriteFile(path, []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("read 1 should pass: %v", err)
	}
	if _, err := f.ReadFile(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2 should fail injected, got %v", err)
	}
	if _, err := f.ReadFile(path); err != nil {
		t.Fatalf("read 3 should pass: %v", err)
	}
	if got := f.Injected()[OpRead]; got != 1 {
		t.Fatalf("injected reads = %d, want 1", got)
	}
}

func TestCrashAtRenameLeavesTempAndFreezes(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.CrashAt(OpRename, 1)

	tmp, err := f.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename(tmp.Name(), filepath.Join(dir, "entry")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename should crash, got %v", err)
	}
	// The dead process's cleanup (remove-on-error) must also fail, so the
	// temp file survives, exactly as after a SIGKILL.
	if err := f.Remove(tmp.Name()); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after crash should fail, got %v", err)
	}
	if !f.Crashed() {
		t.Fatal("not marked crashed")
	}
	if _, err := os.Stat(tmp.Name()); err != nil {
		t.Fatalf("temp file should survive the crash: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "entry")); !os.IsNotExist(err) {
		t.Fatalf("entry must not exist after crash-before-rename: %v", err)
	}
}

func TestPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS(), 1)
	f.FailAt(OpWrite, 1, nil)
	tmp, err := f.CreateTemp(dir, "t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	if _, err := tmp.Write(payload); err == nil {
		t.Fatal("write should fail")
	}
	tmp.Close()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != len(payload)/2 {
		t.Fatalf("partial write left %d bytes, want %d", len(data), len(payload)/2)
	}
}

func TestSeededRateIsDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		f := NewFaulty(OS(), seed)
		f.SetRate(OpRead, 0.5)
		out := make([]bool, 64)
		for i := range out {
			_, err := f.ReadFile("/nonexistent-path-for-schedule")
			out[i] = errors.Is(err, ErrInjected)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
	faults := 0
	for _, hit := range a {
		if hit {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("rate 0.5 injected %d/%d faults", faults, len(a))
	}
}

func TestParseHTTPFaults(t *testing.T) {
	cfg, err := ParseHTTPFaults("seed=7,429=0.2,503=0.1,drop=0.25,latency=50ms,drop-bytes=128,prefix=/x")
	if err != nil {
		t.Fatal(err)
	}
	want := HTTPFaults{Seed: 7, Rate429: 0.2, Rate503: 0.1, RateDrop: 0.25,
		Latency: 50 * time.Millisecond, DropAfterBytes: 128, PathPrefix: "/x"}
	if fmt.Sprintf("%+v", cfg) != fmt.Sprintf("%+v", want) {
		t.Fatalf("got %+v want %+v", cfg, want)
	}
	if _, err := ParseHTTPFaults("bogus=1"); err == nil {
		t.Fatal("unknown key should fail")
	}
	if _, err := ParseHTTPFaults("429=1.5"); err == nil {
		t.Fatal("out-of-range rate should fail")
	}
	empty, err := ParseHTTPFaults("")
	if err != nil || empty.Enabled() {
		t.Fatalf("empty spec should disable: %+v, %v", empty, err)
	}
}

func TestHTTPInjector429And503(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	srv := httptest.NewServer(HTTPFaults{Seed: 3, Rate429: 0.3, Rate503: 0.3, PathPrefix: "/sweeps"}.Wrap(backend))
	defer srv.Close()

	var got429, got503, gotOK int
	for i := 0; i < 40; i++ {
		resp, err := http.Get(srv.URL + "/sweeps")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			got429++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		case http.StatusServiceUnavailable:
			got503++
		case http.StatusOK:
			gotOK++
		}
	}
	if got429 == 0 || got503 == 0 || gotOK == 0 {
		t.Fatalf("fault mix missing a band: 429=%d 503=%d ok=%d", got429, got503, gotOK)
	}
	// Unmatched paths are never faulted.
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("health path was faulted: %d", resp.StatusCode)
		}
	}
}

func TestHTTPInjectorDropsStream(t *testing.T) {
	payload := make([]byte, 16<<10)
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		for i := 0; i < 4; i++ {
			w.Write(payload)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	})
	srv := httptest.NewServer(HTTPFaults{Seed: 1, RateDrop: 1, DropAfterBytes: 100}.Wrap(backend))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil {
		t.Fatalf("stream should be torn down mid-body (read %d bytes cleanly)", n)
	}
	if n > 200 {
		t.Fatalf("read %d bytes, want roughly the 100-byte budget", n)
	}
}
