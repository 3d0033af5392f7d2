package cluster

import (
	"cmp"
	"slices"
	"time"

	"proteus/internal/forecast"
	"proteus/internal/partition"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// Baseline tier management (§6.2): the comparison systems use an LRU
// policy to decide which partitions stay in memory. When a site exceeds
// its memory capacity, the least-recently-accessed memory-tier partitions
// demote to disk; when usage falls below the low watermark, the
// most-recently-accessed disk partitions promote back. Proteus instead
// manages tiers through the ASA's cost-based capacity planning.

// lruTick enforces LRU tiering at every site (non-Proteus modes).
func (e *Engine) lruTick() {
	for _, s := range e.Sites {
		cap := s.MemCapacity()
		if cap <= 0 {
			continue
		}
		used := s.MemUsage()
		switch {
		case used > cap:
			e.lruDemote(s.ID, used-cap*8/10)
		case used < cap*6/10:
			e.lruPromote(s.ID, cap*8/10-used)
		}
	}
}

type lruEntry struct {
	p    *partition.Partition
	heat float64
	size int64
}

func (e *Engine) lruCandidates(siteID int, tier storage.Tier) []lruEntry {
	var out []lruEntry
	for _, p := range e.Sites[siteID].Partitions() {
		if p.Layout().Tier != tier {
			continue
		}
		heat := 0.0
		if m, ok := e.Dir.Get(p.ID); ok {
			heat = m.Tracker.RecentRate(forecast.Update, 16) +
				m.Tracker.RecentRate(forecast.PointRead, 16) +
				m.Tracker.RecentRate(forecast.Scan, 16)
		}
		out = append(out, lruEntry{p: p, heat: heat, size: int64(p.Stats().Bytes)})
	}
	return out
}

// lruDemote moves the coldest memory partitions to disk until `need`
// bytes are freed.
func (e *Engine) lruDemote(siteID simnet.SiteID, need int64) {
	cands := e.lruCandidates(int(siteID), storage.MemoryTier)
	slices.SortFunc(cands, func(a, b lruEntry) int { return cmp.Compare(a.heat, b.heat) })
	freed := int64(0)
	for _, c := range cands {
		if freed >= need {
			return
		}
		l := c.p.Layout()
		l.Tier = storage.DiskTier
		if err := e.ChangeCopyLayout(c.p.ID, siteID, l); err == nil {
			freed += c.size
		}
	}
}

// lruPromote moves the hottest disk partitions back to memory while room
// remains. Partitions too large for the remaining room are skipped, not
// treated as a stop condition: one oversized cold partition must not
// starve smaller hot ones behind it in the heat order.
func (e *Engine) lruPromote(siteID simnet.SiteID, room int64) {
	cands := e.lruCandidates(int(siteID), storage.DiskTier)
	slices.SortFunc(cands, func(a, b lruEntry) int { return cmp.Compare(b.heat, a.heat) })
	for _, c := range cands {
		if c.heat == 0 {
			return // candidates are heat-sorted; the rest are cold
		}
		if c.size >= room {
			continue
		}
		l := c.p.Layout()
		l.Tier = storage.MemoryTier
		if err := e.ChangeCopyLayout(c.p.ID, siteID, l); err == nil {
			room -= c.size
		}
	}
}

// startTiering launches the baseline LRU loop.
func (e *Engine) startTiering(interval time.Duration) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := e.clk.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.lruTick()
			}
		}
	}()
}

// LayoutCounts summarizes the current cluster-wide layout distribution
// (for reporting and the adaptivity experiments).
func (e *Engine) LayoutCounts() map[string]int {
	out := map[string]int{}
	for _, s := range e.Sites {
		for _, p := range s.Partitions() {
			out[p.Layout().String()]++
		}
	}
	return out
}
