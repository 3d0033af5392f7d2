package cluster

import (
	"maps"
	"sync"

	"proteus/internal/txn"
)

// snapRegistry tracks the snapshots operations are reading at, so the
// maintenance tick can compute a horizon — per partition, the oldest
// version any current or future read may ask for — and reclaim every
// version below it (§4.1.1's version chains, §4.2's version vectors).
//
// A snapshot takes its slot before it reads any installed version and
// publishes the finished vector into it; the slot is released when the
// operation ends. A slot still pending (taken, vector not yet built)
// pins the horizon the previous tick published: either the slot was taken
// after that tick read its installed versions, so everything it reads is
// at or above them, or that tick saw it pending too and pinned its own
// horizon the same way. Slots are reused, so taking and releasing one
// allocates nothing once the registry has grown to the peak concurrency.
type snapRegistry struct {
	mu        sync.Mutex
	slots     []*snapSlot // every slot made; those not active are on free
	free      []*snapSlot
	published txn.VersionVector // the horizon the last tick computed
}

// snapSlot is one operation's entry: active from acquire to release, its
// vector nil until published.
type snapSlot struct {
	active bool
	vec    txn.VersionVector
}

func newSnapRegistry() *snapRegistry {
	return &snapRegistry{published: make(txn.VersionVector)}
}

// acquire takes a pending slot.
func (r *snapRegistry) acquire() *snapSlot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s *snapSlot
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
	} else {
		s = &snapSlot{}
		r.slots = append(r.slots, s)
	}
	s.active = true
	return s
}

// publish records the slot's finished vector. The vector must not change
// afterwards.
func (r *snapRegistry) publish(s *snapSlot, vec txn.VersionVector) {
	r.mu.Lock()
	s.vec = vec
	r.mu.Unlock()
}

// release frees the slot: its operation reads nothing more.
func (r *snapRegistry) release(s *snapSlot) {
	r.mu.Lock()
	s.active, s.vec = false, nil
	r.free = append(r.free, s)
	r.mu.Unlock()
}

// horizon computes and publishes the tick's horizon from low, the lowest
// version installed on a live copy of each partition, read before this
// call: the minimum of low and every published snapshot's entry, pinned at
// the previous horizon while any slot is pending (a partition the previous
// tick did not know gets 0 then: nothing of it is reclaimed). The result
// is a new map; calls must not overlap.
func (r *snapRegistry) horizon(low txn.VersionVector) txn.VersionVector {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := maps.Clone(low)
	pending := false
	for _, s := range r.slots {
		switch {
		case !s.active:
		case s.vec == nil:
			pending = true
		default:
			for pid, v := range s.vec {
				if cur, ok := h[pid]; ok && v < cur {
					h[pid] = v
				}
			}
		}
	}
	if pending {
		for pid, cur := range h {
			if prev := r.published[pid]; prev < cur {
				h[pid] = prev
			}
		}
	}
	r.published = h
	return h
}
