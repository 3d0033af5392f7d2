package asa

import (
	"cmp"
	"math"
	"slices"
	"time"

	"proteus/internal/partition"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// A site's memory tier is under pressure from PressureAt of its capacity
// on; a planning pass frees memory there until it is below RelievedAt, and
// adds nothing that would take a site to PressureAt, so a pass never adds
// what the next would have to free.
const (
	PressureAt = 0.9
	RelievedAt = 0.8
)

// Memory is one site's memory tier: bytes in use, capacity (0: unlimited).
type Memory struct{ Used, Cap int64 }

// Pressured reports whether the tier is at or over PressureAt.
func (m Memory) Pressured() bool { return m.Cap > 0 && float64(m.Used) >= PressureAt*float64(m.Cap) }

// Option is one evaluated candidate a planning pass may choose: why its
// partition was considered, the memory it frees at FreeSite (a
// storage-pressure response from CapacityCandidates, else 0) and the
// memory it adds at the candidate's Site (Grows).
type Option struct {
	Candidate
	Reason      string
	FreeSite    simnet.SiteID
	Frees, Adds int64
}

// Executed is a change a pass executed, and when.
type Executed struct {
	Candidate
	At time.Time
}

// History is each partition's last executed change, read at Now: a
// candidate that undoes one made within Horizon must clear the earlier
// change's upfront cost as well as its own, and the net benefit the
// earlier change was expected to bring, which undoing it forfeits.
type History struct {
	Last    map[partition.ID]Executed
	Horizon time.Duration
	Now     time.Time
}

// Undoes returns the recent change c would reverse, if any.
func (h History) Undoes(c Candidate) (Executed, bool) {
	prev, ok := h.Last[c.PID]
	if !ok || h.Now.Sub(prev.At) >= h.Horizon || !Reverses(prev.Candidate, c) {
		return Executed{}, false
	}
	return prev, true
}

// Reverses reports whether next undoes prev: a format, tier, sort or
// compression toggle back at the same copy, a replica removed from the
// site prev added it at (or the reverse), or the master moved away from
// the site prev moved it to. Splits and merges retire the partition, so
// nothing reverses them.
func Reverses(prev, next Candidate) bool {
	if prev.PID != next.PID {
		return false
	}
	same := next.Kind == prev.Kind && next.Site == prev.Site
	p, n := prev.NewLayout, next.NewLayout
	switch prev.Kind {
	case ChangeFormat:
		return same && n.Format != p.Format
	case ChangeTier:
		return same && n.Tier != p.Tier
	case ChangeSort:
		return same && (n.SortBy == storage.NoSort) != (p.SortBy == storage.NoSort)
	case ChangeCompress:
		return same && n.Compressed != p.Compressed
	case AddReplica:
		return next.Kind == RemoveReplica && next.Site == prev.Site
	case RemoveReplica:
		return next.Kind == AddReplica && next.Site == prev.Site
	case ChangeMaster:
		return next.Kind == ChangeMaster && next.Site != prev.Site
	}
	return false
}

// Grows estimates the memory a candidate adds at its Site, the master
// copy's footprint: a new replica, a master moved onto a site with no
// copy, or a copy promoted to memory.
func Grows(view PartitionView, c Candidate) int64 {
	grows := c.Kind == AddReplica || c.Kind == ChangeTier && c.NewLayout.Tier == storage.MemoryTier
	if c.Kind == ChangeMaster {
		grows = !slices.ContainsFunc(view.Replicas, func(r ReplicaView) bool { return r.Site == c.Site })
	}
	if !grows {
		return 0
	}
	return view.Bytes
}

// Choose is a planning pass's benefit-ranked plan (§5.3.2). Each site at
// or over PressureAt first frees memory down to RelievedAt with its
// freeing options, the most net benefit per byte first, whatever their
// sign; then the options with positive net benefit are taken, best first.
// Throughout, at most budget changes are taken, at most one per partition
// (a merge takes its partner too), none adds memory that would take a site
// to PressureAt, and one that undoes a change made within the horizon must
// have a net benefit above that change's upfront cost plus its positive
// net benefit. Ties are broken on the candidate itself, so the plan does
// not depend on the options' order. mem has an entry for every site an
// option names.
func Choose(opts []Option, mem []Memory, hist History, budget int) []Option {
	opts = slices.Clone(opts)
	slices.SortFunc(opts, func(x, y Option) int {
		return cmp.Or(cmp.Compare(y.Net, x.Net), cmp.Compare(x.PID, y.PID), cmp.Compare(x.Kind, y.Kind),
			cmp.Compare(x.Site, y.Site), cmp.Compare(x.Other, y.Other), cmp.Compare(y.Frees, x.Frees))
	})
	mem = slices.Clone(mem)
	var plan []Option
	taken := map[partition.ID]bool{}
	fits := func(o Option, minNet float64) bool {
		if len(plan) >= budget || taken[o.PID] || o.Kind == MergeWith && taken[o.Other] {
			return false
		}
		if prev, ok := hist.Undoes(o.Candidate); ok {
			minNet = max(minNet, prev.Upfront+max(0, prev.Net))
		}
		if o.Net <= minNet {
			return false
		}
		m := mem[o.Site]
		return o.Adds == 0 || m.Cap == 0 || float64(m.Used+o.Adds) < PressureAt*float64(m.Cap)
	}
	take := func(o Option) {
		plan = append(plan, o)
		taken[o.PID] = true
		if o.Kind == MergeWith {
			taken[o.Other] = true
		}
		mem[o.FreeSite].Used -= o.Frees
		mem[o.Site].Used += o.Adds
	}
	for s := range mem {
		if !mem[s].Pressured() {
			continue
		}
		freeing := slices.DeleteFunc(slices.Clone(opts), func(o Option) bool { return o.Frees == 0 || int(o.FreeSite) != s })
		slices.SortStableFunc(freeing, func(x, y Option) int {
			return cmp.Compare(y.Net/float64(y.Frees), x.Net/float64(x.Frees))
		})
		for _, o := range freeing {
			if float64(mem[s].Used) < RelievedAt*float64(mem[s].Cap) {
				break
			}
			if fits(o, math.Inf(-1)) {
				take(o)
			}
		}
	}
	for _, o := range opts {
		if fits(o, 0) {
			take(o)
		}
	}
	return plan
}
