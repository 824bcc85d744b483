package workload

import (
	"fmt"

	"cmpsched/internal/dag"
	"cmpsched/internal/imath"
	"cmpsched/internal/refs"
	"cmpsched/internal/taskgroup"
)

// HashJoinConfig parameterises the hash-join benchmark.
//
// The benchmark models the join phase of a state-of-the-art database hash
// join (§4.2): a pair of build and probe partitions that together fit in the
// join's memory buffer is processed sub-partition by sub-partition.  Each
// sub-partition's build fragment is scanned and its keys inserted into a
// hash table sized to fit the L2 cache; the corresponding probe fragment is
// then scanned, probing the hash table for matches and concatenating the
// matching records into the output.  The original code ran one thread per
// sub-partition; as in the paper, the probe procedure is further divided
// into parallel tasks to produce finer-grained threading.
type HashJoinConfig struct {
	// PartitionBytes is the combined size of the build and probe
	// partitions being joined (the paper's 1 GB memory buffer, divided by
	// the default scale factor of 32: 32 MB).
	PartitionBytes int64
	// SubPartitionBytes is the build-side bytes per sub-partition; the
	// hash table built from it is sized to fit within the L2 cache.
	// Default 80 KB (an eighth of the scaled 16-core default L2, the way
	// HashJoinConfigForL2 would size it). Use HashJoinConfigForL2 to
	// derive it from a specific configuration.
	SubPartitionBytes int64
	// RecordBytes is the record size (100 bytes in the paper).
	RecordBytes int64
	// ProbeMatchesPerBuild is the number of probe records matching each
	// build record (2 in the paper).
	ProbeMatchesPerBuild int64
	// ProbeChunkBytes is the probe bytes handled by one fine-grained
	// probe task. Default 8 KB, small enough that the probes of a single
	// sub-partition can occupy every core of the largest configurations.
	ProbeChunkBytes int64
	// LineBytes is the granularity of emitted references (default 128).
	LineBytes int64
	// HashTableFudge scales the hash-table size relative to the build
	// fragment (buckets, pointers, padding). Default 1.5.
	HashTableFudge float64
	// BuildInstrsPerRecord and ProbeInstrsPerRecord are the instruction
	// costs per record processed.
	BuildInstrsPerRecord int64
	ProbeInstrsPerRecord int64
	// SpawnInstrs is the overhead charged to partitioning/finish tasks.
	SpawnInstrs int64
	// Seed makes the hash-access sequences deterministic.
	Seed uint64
	// CoarseGrained reproduces the original code's threading (one task
	// per sub-partition, serial probe) instead of the fine-grained
	// version; used by the granularity comparison in §5.4.
	CoarseGrained bool
}

func (c HashJoinConfig) withDefaults() HashJoinConfig {
	if c.PartitionBytes == 0 {
		c.PartitionBytes = 32 << 20
	}
	if c.SubPartitionBytes == 0 {
		c.SubPartitionBytes = 80 << 10
	}
	if c.RecordBytes == 0 {
		c.RecordBytes = 100
	}
	if c.ProbeMatchesPerBuild == 0 {
		c.ProbeMatchesPerBuild = 2
	}
	if c.ProbeChunkBytes == 0 {
		c.ProbeChunkBytes = 8 << 10
	}
	if c.LineBytes == 0 {
		c.LineBytes = DefaultLineBytes
	}
	if c.HashTableFudge == 0 {
		c.HashTableFudge = 1.5
	}
	if c.BuildInstrsPerRecord == 0 {
		c.BuildInstrsPerRecord = 120
	}
	if c.ProbeInstrsPerRecord == 0 {
		c.ProbeInstrsPerRecord = 100
	}
	if c.SpawnInstrs == 0 {
		c.SpawnInstrs = 200
	}
	if c.Seed == 0 {
		c.Seed = 0x9a4e_c0de
	}
	return c
}

// HashJoin builds hash-join DAGs.
type HashJoin struct {
	cfg HashJoinConfig
}

// NewHashJoin returns a HashJoin workload; zero config fields take defaults.
func NewHashJoin(cfg HashJoinConfig) *HashJoin {
	return &HashJoin{cfg: cfg.withDefaults()}
}

// HashJoinConfigForL2 returns the default configuration with the
// sub-partition size chosen for the given shared-L2 capacity, the way a
// database system sizes its cache-resident hash tables.  The build fragment
// is a twelfth of the L2: with the ~1.5x hash-table expansion and the
// streaming probe input and output sharing the cache, that is the largest
// sub-partition whose hash table stays resident between probes under LRU.
// Probe chunks are sized so one sub-partition's probes can occupy every
// core of the largest configurations.
func HashJoinConfigForL2(l2Bytes int64) HashJoinConfig {
	cfg := HashJoinConfig{}.withDefaults()
	sub := l2Bytes / 12
	if sub < 16<<10 {
		sub = 16 << 10
	}
	cfg.SubPartitionBytes = sub
	chunk := sub / 24
	if chunk < 2<<10 {
		chunk = 2 << 10
	}
	cfg.ProbeChunkBytes = chunk
	return cfg
}

// Name implements Workload.
func (h *HashJoin) Name() string { return "hashjoin" }

// Config returns the effective configuration.
func (h *HashJoin) Config() HashJoinConfig { return h.cfg }

// BuildBytes returns the build-partition size implied by the configuration:
// every build record matches ProbeMatchesPerBuild probe records of the same
// size, so the build side is 1/(1+matches) of the partition pair.
func (h *HashJoin) BuildBytes() int64 {
	return h.cfg.PartitionBytes / (1 + h.cfg.ProbeMatchesPerBuild)
}

// ProbeBytes returns the probe-partition size.
func (h *HashJoin) ProbeBytes() int64 { return h.cfg.PartitionBytes - h.BuildBytes() }

// SubPartitions returns the number of cache-sized sub-partitions.
func (h *HashJoin) SubPartitions() int64 {
	return max(1, imath.CeilDiv(h.BuildBytes(), h.cfg.SubPartitionBytes))
}

// Build implements Workload.
func (h *HashJoin) Build() (*dag.DAG, *taskgroup.Tree, error) {
	c := h.cfg
	if c.PartitionBytes <= 0 || c.RecordBytes <= 0 {
		return nil, nil, fmt.Errorf("workload: hashjoin: non-positive sizes")
	}
	d := dag.New(fmt.Sprintf("hashjoin-%dMB", c.PartitionBytes>>20))
	tree := taskgroup.New("hashjoin")

	buildBytes := h.BuildBytes()
	probeBytes := h.ProbeBytes()
	subParts := h.SubPartitions()
	buildPer := imath.CeilDiv(buildBytes, subParts)
	probePer := imath.CeilDiv(probeBytes, subParts)
	htBytes := int64(float64(buildPer) * c.HashTableFudge)
	if htBytes < c.LineBytes {
		htBytes = c.LineBytes
	}

	root := d.AddComputeTask("join-setup", c.SpawnInstrs)
	root.Site = "hashjoin.go:join"
	tree.Own(tree.Root, root.ID)

	final := make([]dag.TaskID, 0, subParts)
	for sp := int64(0); sp < subParts; sp++ {
		group := tree.AddChild(tree.Root, fmt.Sprintf("subpartition-%d", sp), "hashjoin.go:subpartition", float64(buildPer+probePer), 0)

		buildBase := baseBuild + uint64(sp*buildPer)
		probeBase := baseProbe + uint64(sp*probePer)
		htBase := baseHash + uint64(sp*htBytes)
		outBase := baseOutput + uint64(sp*probePer*2)

		buildRecords := max(1, buildPer/c.RecordBytes)
		buildGen := refs.NewWithTail(refs.NewInterleave(
			&refs.Scan{Base: buildBase, Bytes: buildPer, LineBytes: c.LineBytes, InstrsPerRef: c.BuildInstrsPerRecord * c.LineBytes / c.RecordBytes},
			&refs.Random{Base: htBase, Bytes: htBytes, LineBytes: c.LineBytes, Count: buildRecords, Seed: c.Seed + uint64(sp)*7919, Write: true, InstrsPerRef: c.BuildInstrsPerRecord / 2},
		), c.SpawnInstrs)
		build := d.AddTask(fmt.Sprintf("build-%d", sp), buildGen)
		build.Site = "hashjoin.go:build"
		build.Param = float64(buildPer)
		build.Level = 0
		d.MustEdge(root.ID, build.ID)
		tree.Own(group, build.ID)

		probeGroup := tree.AddChild(group, fmt.Sprintf("probe-%d", sp), "hashjoin.go:probe", float64(probePer), 1)
		chunk := c.ProbeChunkBytes
		if c.CoarseGrained {
			chunk = probePer
		}
		nChunks := max(1, imath.CeilDiv(probePer, chunk))
		probeIDs := make([]dag.TaskID, 0, nChunks)
		for pc := int64(0); pc < nChunks; pc++ {
			lo := pc * chunk
			sz := min(chunk, probePer-lo)
			records := max(1, sz/c.RecordBytes)
			// Each probe record: stream the probe input, hash the key
			// and follow the bucket chain (two dependent hash-table
			// reads), fetch the matching build record from the
			// cache-resident build fragment, and append the concatenated
			// result to the output. The hash-table and build-fragment
			// accesses are the reusable part of the working set that
			// constructive sharing keeps on chip.
			streaming := refs.NewInterleave(
				&refs.Scan{Base: probeBase + uint64(lo), Bytes: sz, LineBytes: c.LineBytes, InstrsPerRef: c.ProbeInstrsPerRecord * c.LineBytes / (2 * c.RecordBytes)},
				&refs.Scan{Base: outBase + uint64(lo*2), Bytes: sz * 2, LineBytes: c.LineBytes, Write: true, InstrsPerRef: 24},
			)
			resident := refs.NewInterleave(
				&refs.Random{Base: htBase, Bytes: htBytes, LineBytes: c.LineBytes, Count: 2 * records, Seed: c.Seed ^ (uint64(sp)<<20 + uint64(pc)), InstrsPerRef: c.ProbeInstrsPerRecord / 4},
				&refs.Random{Base: buildBase, Bytes: buildPer, LineBytes: c.LineBytes, Count: records, Seed: c.Seed ^ (uint64(sp)<<21 + uint64(pc)*13), InstrsPerRef: c.ProbeInstrsPerRecord / 4},
			)
			gen := refs.NewWithTail(refs.NewInterleave(streaming, resident), c.SpawnInstrs/4)
			probe := d.AddTask(fmt.Sprintf("probe-%d.%d", sp, pc), gen)
			probe.Site = "hashjoin.go:probe"
			probe.Param = float64(sz)
			probe.Level = 1
			d.MustEdge(build.ID, probe.ID)
			tree.Own(probeGroup, probe.ID)
			probeIDs = append(probeIDs, probe.ID)
		}

		finish := d.AddComputeTask(fmt.Sprintf("finish-%d", sp), c.SpawnInstrs)
		finish.Site = "hashjoin.go:subpartition"
		finish.Level = 2
		for _, pid := range probeIDs {
			d.MustEdge(pid, finish.ID)
		}
		tree.Own(group, finish.ID)
		final = append(final, finish.ID)
	}

	done := d.AddComputeTask("join-done", c.SpawnInstrs)
	done.Site = "hashjoin.go:join"
	for _, f := range final {
		d.MustEdge(f, done.ID)
	}
	tree.Own(tree.Root, done.ID)

	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: hashjoin: %w", err)
	}
	if err := tree.Finalize(d); err != nil {
		return nil, nil, fmt.Errorf("workload: hashjoin: %w", err)
	}
	return d, tree, nil
}
