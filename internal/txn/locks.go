// Package txn implements Proteus' partition-based concurrency control
// (§4.2 of the paper): shared/exclusive partition locks with contention
// tracking, per-partition version vectors with dependency tracking that
// yield snapshot isolation, session watermarks that strengthen SI to
// strong session snapshot isolation (SSSI), and a two-phase commit
// coordinator for distributed updates.
package txn

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"proteus/internal/partition"
)

// LockMode distinguishes shared (read) from exclusive (write) locks.
type LockMode uint8

const (
	// Shared locks admit concurrent readers.
	Shared LockMode = iota
	// Exclusive locks admit a single writer.
	Exclusive
)

// plock is one partition's lock state: a counting reader/writer lock built
// on a condition variable so waiters and wait durations can be observed
// (the "lock acquisition" cost function's contention argument, Table 1).
type plock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	readers int
	writer  bool

	waiters    int
	acquires   int64
	totalWait  time.Duration
	waitSample time.Duration // exponentially decayed recent wait
}

func newPLock() *plock {
	l := &plock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *plock) lock(mode LockMode) time.Duration {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waiters++
	for {
		if mode == Shared && !l.writer {
			l.readers++
			break
		}
		if mode == Exclusive && !l.writer && l.readers == 0 {
			l.writer = true
			break
		}
		l.cond.Wait()
	}
	l.waiters--
	w := time.Since(start)
	l.acquires++
	l.totalWait += w
	l.waitSample = (l.waitSample*7 + w) / 8
	return w
}

func (l *plock) unlock(mode LockMode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if mode == Shared {
		l.readers--
	} else {
		l.writer = false
	}
	l.cond.Broadcast()
}

// contention reports the decayed recent wait plus current queue length.
func (l *plock) contention() (waiters int, recentWait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiters, l.waitSample
}

// LockManager owns partition locks for one data site.
type LockManager struct {
	mu    sync.Mutex
	locks map[partition.ID]*plock
}

// NewLockManager creates an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{locks: make(map[partition.ID]*plock)}
}

func (m *LockManager) lockFor(pid partition.ID) *plock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[pid]
	if !ok {
		l = newPLock()
		m.locks[pid] = l
	}
	return l
}

// Acquire locks one partition and returns the wait time.
func (m *LockManager) Acquire(pid partition.ID, mode LockMode) time.Duration {
	return m.lockFor(pid).lock(mode)
}

// Release unlocks one partition.
func (m *LockManager) Release(pid partition.ID, mode LockMode) {
	m.lockFor(pid).unlock(mode)
}

// LockSet is one transaction's held locks.
type LockSet struct {
	m    *LockManager
	held []heldLock // in acquisition order
	// Wait is the total time spent waiting for the set.
	Wait time.Duration
}

type heldLock struct {
	pid  partition.ID
	mode LockMode
}

// AcquireAll locks the requested partitions in global partition.ID order —
// the standard total-order discipline that makes deadlock impossible.
// Duplicate ids are coalesced, keeping the strongest requested mode.
func (m *LockManager) AcquireAll(reads, writes []partition.ID) *LockSet {
	held := make([]heldLock, 0, len(reads)+len(writes))
	for _, p := range reads {
		held = append(held, heldLock{p, Shared})
	}
	for _, p := range writes {
		held = append(held, heldLock{p, Exclusive})
	}
	// Exclusive sorts first among a partition's requests, so Compact keeps it.
	slices.SortFunc(held, func(a, b heldLock) int {
		if c := cmp.Compare(a.pid, b.pid); c != 0 {
			return c
		}
		return cmp.Compare(b.mode, a.mode)
	})
	held = slices.CompactFunc(held, func(a, b heldLock) bool { return a.pid == b.pid })

	ls := &LockSet{m: m, held: held}
	for _, h := range held {
		ls.Wait += m.Acquire(h.pid, h.mode)
	}
	return ls
}

// ReleaseAll unlocks every held lock.
func (ls *LockSet) ReleaseAll() {
	for i := len(ls.held) - 1; i >= 0; i-- {
		ls.m.Release(ls.held[i].pid, ls.held[i].mode)
	}
	ls.held = nil
}

// Contention reports the current contention signal for one partition.
func (m *LockManager) Contention(pid partition.ID) (waiters int, recentWait time.Duration) {
	return m.lockFor(pid).contention()
}
