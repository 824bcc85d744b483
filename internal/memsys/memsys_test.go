package memsys

import (
	"testing"
	"testing/quick"
)

func newMemory(t *testing.T, cfg Config, ports int) *Memory {
	t.Helper()
	m, err := New(cfg, ports)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func paperMemory(t *testing.T) *Memory {
	t.Helper()
	return newMemory(t, Config{LatencyCycles: 300, ServiceIntervalCycles: 30}, 1)
}

func TestValidate(t *testing.T) {
	if err := (Config{LatencyCycles: -1}).Validate(); err == nil {
		t.Fatalf("accepted negative latency")
	}
	if err := (Config{ServiceIntervalCycles: -1}).Validate(); err == nil {
		t.Fatalf("accepted negative service interval")
	}
	if _, err := New(Config{LatencyCycles: -1}, 1); err == nil {
		t.Fatalf("New accepted invalid config")
	}
}

func TestUncontendedFetchLatency(t *testing.T) {
	m := paperMemory(t)
	done := m.Fetch(0, 1000)
	if done != 1300 {
		t.Fatalf("fetch completion = %d, want 1300", done)
	}
	s := m.Stats()
	if s.Fetches != 1 || s.QueueCycles != 0 || s.BusyCycles != 30 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBandwidthQueueing(t *testing.T) {
	m := paperMemory(t)
	// Two simultaneous fetches: the second queues for one service interval.
	d1 := m.Fetch(0, 0)
	d2 := m.Fetch(0, 0)
	if d1 != 300 {
		t.Fatalf("first fetch = %d, want 300", d1)
	}
	if d2 != 330 {
		t.Fatalf("second fetch = %d, want 330 (queued behind the first)", d2)
	}
	if m.Stats().QueueCycles != 30 {
		t.Fatalf("queue cycles = %d, want 30", m.Stats().QueueCycles)
	}
}

func TestWidelySpacedFetchesDoNotQueue(t *testing.T) {
	m := paperMemory(t)
	m.Fetch(0, 0)
	d := m.Fetch(0, 1000)
	if d != 1300 {
		t.Fatalf("spaced fetch = %d, want 1300", d)
	}
	if m.Stats().QueueCycles != 0 {
		t.Fatalf("unexpected queueing: %+v", m.Stats())
	}
}

func TestWritebackConsumesBandwidthWithoutStalling(t *testing.T) {
	m := paperMemory(t)
	m.Writeback(0, 0)
	d := m.Fetch(0, 0)
	if d != 330 {
		t.Fatalf("fetch after writeback = %d, want 330", d)
	}
	s := m.Stats()
	if s.Writebacks != 1 || s.Transfers() != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUtilization(t *testing.T) {
	m := paperMemory(t)
	for i := 0; i < 10; i++ {
		m.Fetch(0, int64(i)*30)
	}
	// 10 transfers x 30 cycles over 300 cycles = 100% busy.
	if u := m.Utilization(300); u != 1.0 {
		t.Fatalf("utilization = %f, want 1.0", u)
	}
	if u := m.Utilization(600); u != 0.5 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
	if u := m.Utilization(0); u != 0 {
		t.Fatalf("utilization with zero elapsed = %f, want 0", u)
	}
}

func TestZeroServiceIntervalMeansInfiniteBandwidth(t *testing.T) {
	m := newMemory(t, Config{LatencyCycles: 100, ServiceIntervalCycles: 0}, 1)
	d1 := m.Fetch(0, 0)
	d2 := m.Fetch(0, 0)
	if d1 != 100 || d2 != 100 {
		t.Fatalf("fetches = %d, %d, want 100, 100", d1, d2)
	}
}

// Property: completion time is always >= issue time + latency, and issue
// order preserves channel start order (FIFO).
func TestPropertyFetchMonotonic(t *testing.T) {
	f := func(deltas []uint8) bool {
		m, err := New(Config{LatencyCycles: 50, ServiceIntervalCycles: 7}, 1)
		if err != nil {
			return false
		}
		now := int64(0)
		lastDone := int64(0)
		for _, d := range deltas {
			now += int64(d % 20)
			done := m.Fetch(0, now)
			if done < now+50 {
				return false
			}
			if done < lastDone {
				return false
			}
			lastDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPortValidation checks a request from a port the memory was not built
// with panics instead of being charged to some other port.
func TestPortValidation(t *testing.T) {
	m := newMemory(t, Config{LatencyCycles: 300, ServiceIntervalCycles: 30}, 2)
	for _, port := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Fetch from port %d of 2 did not panic", port)
				}
			}()
			m.Fetch(port, 0)
		}()
	}
	if got := len(m.PortStats()); got != 2 {
		t.Fatalf("PortStats has %d entries, want 2", got)
	}
}

// TestPortsShareOneChannel checks the ports add no timing of their own:
// requests spread over three ports complete exactly when the same sequence
// issued on one port does.
func TestPortsShareOneChannel(t *testing.T) {
	one := paperMemory(t)
	three := newMemory(t, Config{LatencyCycles: 300, ServiceIntervalCycles: 30}, 3)
	issues := []struct {
		port int
		now  int64
	}{{0, 0}, {1, 0}, {2, 10}, {0, 1000}}
	for _, is := range issues {
		want := one.Fetch(0, is.now)
		if got := three.Fetch(is.port, is.now); got != want {
			t.Errorf("Fetch(port=%d, now=%d) = %d, want %d", is.port, is.now, got, want)
		}
	}
	one.Writeback(0, 2000)
	three.Writeback(1, 2000)
	if one.Fetch(0, 2000) != three.Fetch(2, 2000) {
		t.Errorf("a write-back on one port did not delay a fetch on another")
	}
	if one.Stats() != three.Stats() {
		t.Errorf("chip-level stats diverged: %+v vs %+v", one.Stats(), three.Stats())
	}
}

// TestPortAttribution checks contention is charged to the port that
// suffered it and that the port stats sum to the chip totals.
func TestPortAttribution(t *testing.T) {
	m := newMemory(t, Config{LatencyCycles: 300, ServiceIntervalCycles: 30}, 2)
	m.Fetch(0, 0) // starts service at 0
	m.Fetch(1, 0) // queues 30 cycles behind port 0
	m.Writeback(0, 100)
	ports := m.PortStats()
	want := []Stats{
		{Fetches: 1, Writebacks: 1, QueueCycles: 0, BusyCycles: 60},
		{Fetches: 1, QueueCycles: 30, BusyCycles: 30},
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Errorf("port %d = %+v, want %+v", i, ports[i], want[i])
		}
	}
	chip := Stats{Fetches: 2, Writebacks: 1, QueueCycles: 30, BusyCycles: 90}
	if got := m.Stats(); got != chip {
		t.Errorf("chip stats = %+v, want %+v (the port sums)", got, chip)
	}
}
