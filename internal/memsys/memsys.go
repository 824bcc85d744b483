// Package memsys models the off-chip memory system: a fixed access latency
// plus a pin-bandwidth constraint expressed as a service interval (cycles
// between successive line transfers), as in Table 1 of the paper
// (latency 300 cycles, service rate 30 cycles).
//
// The bandwidth channel is a single FIFO resource: a request issued at time
// t starts service at max(t, nextFree); queueing delay is charged to the
// requester.  Write-backs occupy a transfer slot but do not stall the
// requesting core.
//
// Requests arrive on ports, one per L2 slice.  Pin bandwidth is a chip-level
// resource: slicing the L2 does not add pins, so every port contends for the
// same channel, and the ports only attribute traffic and queueing delay to
// the slice that issued it.
package memsys

import "fmt"

// Config describes the off-chip memory system.
type Config struct {
	// LatencyCycles is the unloaded latency of a line fetch.
	LatencyCycles int64
	// ServiceIntervalCycles is the minimum spacing between successive
	// off-chip transfers; it encodes the pin bandwidth (one 128-byte line
	// every 30 cycles in the paper's configurations).
	ServiceIntervalCycles int64
}

// Validate reports inconsistent configurations.
func (c Config) Validate() error {
	if c.LatencyCycles < 0 {
		return fmt.Errorf("memsys: negative latency %d", c.LatencyCycles)
	}
	if c.ServiceIntervalCycles < 0 {
		return fmt.Errorf("memsys: negative service interval %d", c.ServiceIntervalCycles)
	}
	return nil
}

// Stats summarises memory-system activity.
type Stats struct {
	// Fetches is the number of demand line fetches.
	Fetches int64
	// Writebacks is the number of dirty-line write-backs.
	Writebacks int64
	// QueueCycles is the total time requests spent waiting for the
	// bandwidth channel.
	QueueCycles int64
	// BusyCycles is the total time the channel spent transferring.
	BusyCycles int64
}

// Transfers returns the total number of off-chip transfers.
func (s Stats) Transfers() int64 { return s.Fetches + s.Writebacks }

// Memory is the off-chip memory model. The zero value is unusable; use New.
type Memory struct {
	cfg      Config
	nextFree int64
	ports    []Stats
}

// New returns a memory system with the given configuration and number of
// ports, which must be positive.
func New(cfg Config, ports int) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Memory{cfg: cfg, ports: make([]Stats, ports)}, nil
}

// Stats returns the chip totals: the sum of every port's statistics.
func (m *Memory) Stats() Stats {
	var s Stats
	for _, p := range m.ports {
		s.Fetches += p.Fetches
		s.Writebacks += p.Writebacks
		s.QueueCycles += p.QueueCycles
		s.BusyCycles += p.BusyCycles
	}
	return s
}

// PortStats returns a copy of the per-port statistics, indexed by port.
func (m *Memory) PortStats() []Stats {
	out := make([]Stats, len(m.ports))
	copy(out, m.ports)
	return out
}

// Fetch issues a demand line fetch from port at time now and returns the
// cycle at which the data is available to the requester (queueing +
// latency).  An unknown port panics.
func (m *Memory) Fetch(port int, now int64) int64 {
	p := &m.ports[port]
	start := max(now, m.nextFree)
	m.nextFree = start + m.cfg.ServiceIntervalCycles
	p.Fetches++
	p.QueueCycles += start - now
	p.BusyCycles += m.cfg.ServiceIntervalCycles
	return start + m.cfg.LatencyCycles
}

// Writeback schedules a dirty-line write-back from port at time now. The
// requester does not wait for it, but it consumes a bandwidth slot, delaying
// later transfers.  An unknown port panics.
func (m *Memory) Writeback(port int, now int64) {
	p := &m.ports[port]
	m.nextFree = max(now, m.nextFree) + m.cfg.ServiceIntervalCycles
	p.Writebacks++
	p.BusyCycles += m.cfg.ServiceIntervalCycles
}

// Utilization returns the fraction of elapsed cycles the off-chip channel
// was busy, in [0, 1]. elapsed must be positive for a meaningful result.
func (m *Memory) Utilization(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return min(1, float64(m.Stats().BusyCycles)/float64(elapsed))
}
