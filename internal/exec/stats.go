package exec

import "sync/atomic"

// Process-wide counters for the batch join and group-by engine, following
// the storage batch-stats pattern: operators bump atomics on their hot
// paths and the cluster engine's metrics snapshot surfaces them as
// exec.join.* / exec.groupby.* counters in /metrics and \stats.

var (
	statJoins           atomic.Int64
	statJoinBuildRows   atomic.Int64
	statJoinProbeRows   atomic.Int64
	statJoinOutRows     atomic.Int64
	statJoinBuildNanos  atomic.Int64
	statJoinProbeNanos  atomic.Int64
	statBloomTested     atomic.Int64
	statBloomPassed     atomic.Int64
	statRFBoundsPreds   atomic.Int64
	statSpillPartitions atomic.Int64
	statSpillBytes      atomic.Int64
	statSpillRecursions atomic.Int64
	statJoinPipelined   atomic.Int64
	statJoinBroadcast   atomic.Int64
	statJoinChainSteps  atomic.Int64

	statGroupByBatches  atomic.Int64
	statGroupByIntRows  atomic.Int64
	statGroupByCodeRows atomic.Int64
	statGroupByBoxRows  atomic.Int64
)

// RecordRFBoundsPush counts a min-max runtime-filter bounds predicate
// pushed into a scan's predicate (bumped by the cluster executor, which
// owns the plan-side pushdown).
func RecordRFBoundsPush() { statRFBoundsPreds.Add(1) }

// RecordJoinBroadcast counts bytes of build rows and runtime filters the
// cluster executor shipped to a probing site from another site.
func RecordJoinBroadcast(bytes int64) { statJoinBroadcast.Add(bytes) }

// JoinStats is a snapshot of the batch-join counters.
type JoinStats struct {
	Joins           int64 // batch hash joins executed (a pipelined one once per probing site)
	BuildRows       int64 // rows hashed into build tables, at every probing site
	ProbeRows       int64 // rows probed
	OutRows         int64 // matched pairs produced, materialized or not
	BuildNanos      int64 // time spent canonicalizing keys and building tables and their filters
	ProbeNanos      int64 // time spent probing and assembling join output
	BloomTested     int64 // probe rows tested against a runtime filter
	BloomPassed     int64 // probe rows that passed the runtime filter
	BoundsPreds     int64 // min-max runtime-filter predicates pushed to scans
	SpillPartitions int64 // grace-join partitions written to the spill device
	SpillBytes      int64 // bytes written to the spill device
	SpillRecursions int64 // partitions that repartitioned recursively
	Pipelined       int64 // joins probed inside the morsel workers
	BroadcastBytes  int64 // build-row/filter bytes shipped to probing sites from other sites
	ChainSteps      int64 // bucket entries visited by probes (÷ ProbeRows = per probe)
}

// ReadJoinStats snapshots the process-wide batch-join counters.
func ReadJoinStats() JoinStats {
	return JoinStats{
		Joins:           statJoins.Load(),
		BuildRows:       statJoinBuildRows.Load(),
		ProbeRows:       statJoinProbeRows.Load(),
		OutRows:         statJoinOutRows.Load(),
		BuildNanos:      statJoinBuildNanos.Load(),
		ProbeNanos:      statJoinProbeNanos.Load(),
		BloomTested:     statBloomTested.Load(),
		BloomPassed:     statBloomPassed.Load(),
		BoundsPreds:     statRFBoundsPreds.Load(),
		SpillPartitions: statSpillPartitions.Load(),
		SpillBytes:      statSpillBytes.Load(),
		SpillRecursions: statSpillRecursions.Load(),
		Pipelined:       statJoinPipelined.Load(),
		BroadcastBytes:  statJoinBroadcast.Load(),
		ChainSteps:      statJoinChainSteps.Load(),
	}
}

// GroupByStats is a snapshot of the grouped-aggregation counters, split by
// the form canonKeys gave a batch's key columns: every column a typed
// int64 key read from a plain vector, typed with at least one decoded from
// FoR codes, or at least one boxed (strings, dictionary codes, RLE runs,
// NULL-bearing or fractional-float columns). Rows grouped tuple by tuple
// (Observe, MergeFrom) are not counted.
type GroupByStats struct {
	Batches  int64 // grouped batches observed
	IntRows  int64 // rows whose key columns were all typed, none from FoR codes
	CodeRows int64 // rows whose key columns were all typed, one from FoR codes
	BoxRows  int64 // rows with a boxed key column
}

// ReadGroupByStats snapshots the process-wide group-by counters.
func ReadGroupByStats() GroupByStats {
	return GroupByStats{
		Batches:  statGroupByBatches.Load(),
		IntRows:  statGroupByIntRows.Load(),
		CodeRows: statGroupByCodeRows.Load(),
		BoxRows:  statGroupByBoxRows.Load(),
	}
}
