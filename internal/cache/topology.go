package cache

import (
	"fmt"
	"strconv"
	"strings"

	"cmpsched/internal/imath"
)

// TopologyKind selects how the L2 capacity is organised relative to the
// cores.  The paper's machine (§4.1) is TopologyShared; TopologyPrivate and
// TopologyClustered generalise it so the shared-vs-private design axis the
// paper argues from (constructive sharing needs a *shared* L2) can be
// evaluated rather than assumed.
type TopologyKind int

const (
	// TopologyShared is one L2 serving every core (the paper's machine).
	// It is the zero value, so configurations that predate the topology
	// layer keep their exact pre-refactor behaviour.
	TopologyShared TopologyKind = iota
	// TopologyPrivate gives each core its own L2 slice of 1/P of the total
	// capacity (equal-area comparison).
	TopologyPrivate
	// TopologyClustered shares one L2 slice among each group of
	// Topology.ClusterSize cores.  ClusterSize 1 degenerates to private,
	// ClusterSize >= P to shared.
	TopologyClustered
)

// String implements fmt.Stringer.
func (k TopologyKind) String() string {
	switch k {
	case TopologyShared:
		return "shared"
	case TopologyPrivate:
		return "private"
	case TopologyClustered:
		return "clustered"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// MinL2HitLatency is the floor for scaled-down L2 slice hit latencies, in
// cycles: the latency of the smallest (1 MB) L2 in the paper's Table 3.
const MinL2HitLatency int64 = 7

// Topology describes how the chip's L2 capacity is partitioned into slices
// and how cores map onto them.  The zero value is the shared topology, i.e.
// the paper's machine.
type Topology struct {
	// Kind selects shared, private or clustered.
	Kind TopologyKind
	// ClusterSize is the number of cores sharing one L2 slice; it is only
	// meaningful for TopologyClustered.
	ClusterSize int
}

// Shared returns the shared-L2 topology (the paper's machine).
func Shared() Topology { return Topology{Kind: TopologyShared} }

// Private returns the private-L2-per-core topology.
func Private() Topology { return Topology{Kind: TopologyPrivate} }

// Clustered returns the topology with k cores per L2 slice.
func Clustered(k int) Topology {
	return Topology{Kind: TopologyClustered, ClusterSize: k}
}

// ParseTopology decodes the canonical encodings "shared", "private" and
// "clustered:<k>".
func ParseTopology(s string) (Topology, error) {
	switch {
	case s == "shared":
		return Shared(), nil
	case s == "private":
		return Private(), nil
	case strings.HasPrefix(s, "clustered:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "clustered:"))
		if err != nil || k <= 0 {
			return Topology{}, fmt.Errorf("cache: bad cluster size in topology %q (want clustered:<k> with k >= 1)", s)
		}
		return Clustered(k), nil
	default:
		return Topology{}, fmt.Errorf("cache: unknown topology %q (want shared, private or clustered:<k>)", s)
	}
}

// String returns the canonical encoding accepted by ParseTopology.  It is
// the form folded into sweep content-address keys (config fingerprints), so
// distinct topologies always hash to distinct cache entries.
func (t Topology) String() string {
	switch t.Kind {
	case TopologyShared:
		return "shared"
	case TopologyPrivate:
		return "private"
	case TopologyClustered:
		return fmt.Sprintf("clustered:%d", t.ClusterSize)
	default:
		return fmt.Sprintf("topology(%d)", int(t.Kind))
	}
}

// Validate reports topologies that cannot be instantiated on cores cores.
func (t Topology) Validate(cores int) error {
	if cores <= 0 {
		return fmt.Errorf("cache: topology needs at least one core, got %d", cores)
	}
	switch t.Kind {
	case TopologyShared, TopologyPrivate:
		return nil
	case TopologyClustered:
		if t.ClusterSize <= 0 {
			return fmt.Errorf("cache: clustered topology needs ClusterSize >= 1, got %d", t.ClusterSize)
		}
		return nil
	default:
		return fmt.Errorf("cache: unknown topology kind %d", int(t.Kind))
	}
}

// coresPerSlice returns the number of cores mapped to one slice.
func (t Topology) coresPerSlice(cores int) int {
	switch t.Kind {
	case TopologyPrivate:
		return 1
	case TopologyClustered:
		k := t.ClusterSize
		if k > cores {
			k = cores
		}
		return k
	default:
		return cores
	}
}

// Slices returns the number of L2 slices the topology creates on a machine
// with cores cores: 1 for shared, cores for private, ceil(cores/k) for
// clustered.
func (t Topology) Slices(cores int) int {
	k := t.coresPerSlice(cores)
	return (cores + k - 1) / k
}

// SliceOf returns the L2 slice serving the given core.
func (t Topology) SliceOf(core, cores int) int {
	return core / t.coresPerSlice(cores)
}

// SliceConfig derives one slice's cache configuration from the total L2
// configuration: capacity is divided evenly among the slices (equal-area
// comparison — the aggregate sliced capacity never exceeds the total by
// more than one line per slice), the line size is unchanged, associativity
// shrinks when a slice's share cannot hold a full set (so the floor is one
// line, not one set — a full-associativity floor would silently hand a
// finely sliced machine many times the shared capacity at extreme scale
// factors), and the hit latency shrinks by 2 cycles per capacity halving
// (the trend of the paper's Tables 2-3, where each doubling of L2 capacity
// costs about 2 cycles), floored at MinL2HitLatency.  With one slice the
// total configuration is returned unchanged.
func (t Topology) SliceConfig(total Config, cores int) Config {
	slices := t.Slices(cores)
	if slices <= 1 {
		return total
	}
	slice := total
	slice.SizeBytes = total.SizeBytes / int64(slices)
	if slice.SizeBytes < total.LineBytes {
		slice.SizeBytes = total.LineBytes
	}
	if int64(slice.Assoc)*total.LineBytes > slice.SizeBytes {
		slice.Assoc = int(slice.SizeBytes / total.LineBytes)
	}
	lat := total.HitLatency - 2*imath.Log2Ceil(int64(slices))
	if lat < MinL2HitLatency {
		lat = MinL2HitLatency
	}
	if lat > total.HitLatency {
		lat = total.HitLatency
	}
	slice.HitLatency = lat
	return slice
}
