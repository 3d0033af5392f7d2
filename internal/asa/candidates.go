package asa

import (
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// GenerateCandidates proposes every flag-enabled change applicable to the
// partition view (§5.3.2's search over changes affecting a high-cost
// leaf). The caller evaluates each with Evaluator.Evaluate and chooses
// among them with Choose.
func GenerateCandidates(view PartitionView, flags Flags, numSites int) []Candidate {
	var out []Candidate
	cur := view.Master.Layout
	pid := view.PID
	site := view.Master.Site

	// Format flip.
	if flags.FormatChanges {
		next := cur
		if cur.Format == storage.RowFormat {
			next.Format = storage.ColumnFormat
		} else {
			next.Format = storage.RowFormat
			next.SortBy = storage.NoSort
			next.Compressed = false
		}
		out = append(out, Candidate{Kind: ChangeFormat, PID: pid, Site: site, NewLayout: next})
	}

	// Tier moves (both directions).
	if flags.TierChanges {
		next := cur
		if cur.Tier == storage.MemoryTier {
			next.Tier = storage.DiskTier
		} else {
			next.Tier = storage.MemoryTier
		}
		out = append(out, Candidate{Kind: ChangeTier, PID: pid, Site: site, NewLayout: next})
	}

	// Sorting (column format only): sort by the most read-hot column;
	// or drop an existing sort.
	if flags.Sorting && cur.Format == storage.ColumnFormat {
		if cur.SortBy == storage.NoSort {
			if hot, ok := hottestCol(view.ReadHotCols); ok {
				next := cur
				next.SortBy = hot
				out = append(out, Candidate{Kind: ChangeSort, PID: pid, Site: site, NewLayout: next})
			}
		} else {
			next := cur
			next.SortBy = storage.NoSort
			out = append(out, Candidate{Kind: ChangeSort, PID: pid, Site: site, NewLayout: next})
		}
	}

	// Compression toggle (column format only).
	if flags.Compression && cur.Format == storage.ColumnFormat {
		next := cur
		next.Compressed = !cur.Compressed
		out = append(out, Candidate{Kind: ChangeCompress, PID: pid, Site: site, NewLayout: next})
	}

	// Vertical split: separate a write-hot column range from read-hot
	// columns (row splitting, §2.2), at the first boundary between them.
	if flags.VerticalSplit && view.Bounds.NumCols() >= 2 {
		if at, ok := verticalCut(view); ok {
			out = append(out, Candidate{Kind: SplitVertical, PID: pid, Site: site, SplitCol: at})
		}
	}

	// Horizontal split at the midpoint (repeated splits isolate hot rows).
	if flags.HorizontalSplit && view.Bounds.NumRows() >= 2 && view.Rows >= 2 {
		mid := view.Bounds.RowStart + schema.RowID(view.Bounds.NumRows()/2)
		out = append(out, Candidate{Kind: SplitHorizontal, PID: pid, Site: site, SplitRow: mid})
	}

	// Replica with the complementary format at another site.
	if flags.Replication && numSites > 1 && len(view.Replicas) < numSites-1 {
		next := cur
		if cur.Format == storage.RowFormat {
			next = storage.DefaultColumnLayout()
		} else {
			next = storage.DefaultRowLayout()
		}
		target := simnet.SiteID((int(site) + 1) % numSites)
		for _, r := range view.Replicas {
			if r.Site == target {
				target = simnet.SiteID((int(target) + 1) % numSites)
			}
		}
		if target != site {
			out = append(out, Candidate{Kind: AddReplica, PID: pid, Site: target, NewLayout: next})
		}
	}
	if flags.Replication {
		for _, r := range view.Replicas {
			out = append(out, Candidate{Kind: RemoveReplica, PID: pid, Site: r.Site})
		}
	}

	// Master move toward the co-access site.
	if flags.MasterChanges && view.CoAccessSite >= 0 && view.CoAccessSite != site {
		// Only meaningful when that site already holds a copy or the
		// executor will install one; the executor handles both.
		out = append(out, Candidate{Kind: ChangeMaster, PID: pid, Site: view.CoAccessSite, NewLayout: cur})
	}

	return out
}

// hottestCol returns the index of the first true entry (local column).
func hottestCol(hot []bool) (schema.ColID, bool) {
	for i, h := range hot {
		if h {
			return schema.ColID(i), true
		}
	}
	return 0, false
}

// verticalCut finds a local column boundary separating a write-hot prefix
// or suffix from the rest. Returns the table-global split column.
func verticalCut(view PartitionView) (schema.ColID, bool) {
	n := view.Bounds.NumCols()
	if len(view.WriteHotCols) < n {
		return 0, false
	}
	// Find a contiguous write-hot block; split before/after it.
	first, last := -1, -1
	for i := 0; i < n; i++ {
		if view.WriteHotCols[i] {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || (first == 0 && last == n-1) {
		return 0, false // nothing write-hot, or everything is
	}
	var local schema.ColID
	if first > 0 {
		local = schema.ColID(first)
	} else {
		local = schema.ColID(last + 1)
	}
	return view.Bounds.GlobalCol(local), true
}

// CapacityOption is a change made under storage pressure (§5.3.2) with the
// bytes it frees; Choose takes a pressured site's options by net benefit
// per byte freed until the site is back under RelievedAt.
type CapacityOption struct {
	Candidate  Candidate
	BytesFreed int64
}

// CapacityCandidates proposes the §5.3.2 storage-pressure responses for a
// partition resident at the pressured site: remove replicas, compress,
// demote to disk. Moving mastership away is not one: the old master stays
// at the site as a replica, so the move frees nothing there.
func CapacityCandidates(view PartitionView, atSite simnet.SiteID, flags Flags, bytes int64) []CapacityOption {
	var out []CapacityOption
	cur := view.Master.Layout
	if view.Master.Site == atSite {
		if flags.Compression && cur.Format == storage.ColumnFormat && !cur.Compressed {
			next := cur
			next.Compressed = true
			out = append(out, CapacityOption{
				Candidate:  Candidate{Kind: ChangeCompress, PID: view.PID, Site: atSite, NewLayout: next},
				BytesFreed: bytes / 2,
			})
		}
		if flags.TierChanges && cur.Tier == storage.MemoryTier {
			next := cur
			next.Tier = storage.DiskTier
			out = append(out, CapacityOption{
				Candidate:  Candidate{Kind: ChangeTier, PID: view.PID, Site: atSite, NewLayout: next},
				BytesFreed: bytes,
			})
		}
	}
	for _, r := range view.Replicas {
		if r.Site == atSite && flags.Replication {
			out = append(out, CapacityOption{
				Candidate:  Candidate{Kind: RemoveReplica, PID: view.PID, Site: atSite},
				BytesFreed: bytes,
			})
		}
	}
	return out
}
