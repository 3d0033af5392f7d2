package vclock

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// SimConfig parameterizes a Sim clock.
type SimConfig struct {
	// Start is the virtual epoch (a fixed date by default, so runs are
	// reproducible byte-for-byte regardless of when they execute).
	Start time.Time
	// ParkGrace is the quiescence window used when every registered
	// goroutine is parked in the clock — the fast path. Default 20µs.
	ParkGrace time.Duration
	// IdleGrace is the quiescence window used when goroutines the clock
	// cannot see (blocked on channels, mid-computation) may still be
	// running — the conservative fallback. Default 500µs.
	IdleGrace time.Duration
}

// simEpoch is the default virtual epoch.
var simEpoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	evPending = iota
	evFired
	evCancelled
)

// simEvent is one heap entry: a timer/sleep wakeup or a ticker arm.
type simEvent struct {
	at     time.Duration // virtual fire offset
	seq    uint64        // tiebreaker: schedule order
	ch     chan time.Time
	period time.Duration // > 0 re-arms (ticker)
	owner  *simTicker    // ticker handle owning this arm, if any
	parked bool          // a goroutine is parked in Sleep on ch
	state  uint8
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Sim is a discrete-event virtual clock: a min-heap of timestamped
// events whose logical time advances only when the system is quiescent —
// every clock-registered goroutine parked in a clock wait (the
// inference-sim ClusterEventQueue discipline), with a short
// generation-stability grace as the conservative fallback for goroutines
// the clock cannot observe (blocked on channels fed by parked work).
// Seconds of simulated time run in microseconds, and under a fixed seed
// the event order — pop by (timestamp, sequence) — is deterministic.
//
// The advance itself is performed by a single background goroutine
// started by NewSim and stopped by Stop.
type Sim struct {
	parkGrace time.Duration
	idleGrace time.Duration
	base      time.Time

	offset atomic.Int64  // virtual nanoseconds since base (lock-free reads)
	gen    atomic.Uint64 // bumped on every clock mutation (quiescence probe)

	mu     sync.Mutex
	cv     *sync.Cond // advancer waits here for pending events
	events eventHeap
	seq    uint64
	active int // registered driver goroutines
	parked int // goroutines parked in clock waits
	// starting counts the tasks Go has spawned that have not begun to
	// run: runnable by construction, so time never advances past them.
	starting int
	stopped  bool

	advances     atomic.Uint64 // total time advances
	idleAdvances atomic.Uint64 // advances taken via the fallback grace
}

// NewSim creates and starts a Sim clock.
func NewSim(cfg SimConfig) *Sim {
	s := &Sim{
		parkGrace: cfg.ParkGrace,
		idleGrace: cfg.IdleGrace,
		base:      cfg.Start,
	}
	if s.parkGrace <= 0 {
		s.parkGrace = 20 * time.Microsecond
	}
	if s.idleGrace <= 0 {
		s.idleGrace = 500 * time.Microsecond
	}
	if s.base.IsZero() {
		s.base = simEpoch
	}
	s.cv = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// Now implements Clock: the virtual time.
func (s *Sim) Now() time.Time { return s.base.Add(time.Duration(s.offset.Load())) }

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Elapsed reports how much virtual time has passed since the epoch.
func (s *Sim) Elapsed() time.Duration { return time.Duration(s.offset.Load()) }

// Advances reports how many discrete advances the clock has performed,
// and how many of them were taken via the conservative idle fallback
// rather than the all-parked fast path. A run whose fallback share is
// high has goroutines sleeping outside the clock's view.
func (s *Sim) Advances() (total, idleFallback uint64) {
	return s.advances.Load(), s.idleAdvances.Load()
}

// Register marks the calling goroutine as a clock-driven task: the clock
// may advance as soon as every registered task is parked in a clock
// wait. Pair with Unregister (vclock.Go does both).
func (s *Sim) Register() {
	s.mu.Lock()
	s.active++
	s.gen.Add(1)
	s.mu.Unlock()
}

// Unregister reverses Register.
func (s *Sim) Unregister() {
	s.mu.Lock()
	s.active--
	s.gen.Add(1)
	s.cv.Signal()
	s.mu.Unlock()
}

// spawn runs f on a new goroutine registered as a driver task before the
// go statement (vclock.Go). Until the goroutine begins, the advancer holds
// virtual time still.
func (s *Sim) spawn(f func()) {
	s.mu.Lock()
	s.active++
	s.starting++
	s.gen.Add(1)
	s.mu.Unlock()
	go func() {
		s.mu.Lock()
		s.starting--
		s.gen.Add(1)
		s.cv.Signal()
		s.mu.Unlock()
		defer s.Unregister()
		f()
	}()
}

// park marks the calling goroutine as blocked on a signal only
// virtual-time progress can produce (vclock.Park). It counts toward the
// all-parked fast path like a clock sleeper but schedules no event; the
// returned release is idempotent.
func (s *Sim) park() func() {
	s.mu.Lock()
	s.parked++
	s.gen.Add(1)
	s.cv.Signal()
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			s.parked--
			s.gen.Add(1)
			s.mu.Unlock()
		})
	}
}

// scheduleLocked pushes one event to fire d from now.
func (s *Sim) scheduleLocked(d time.Duration, ch chan time.Time, period time.Duration) *simEvent {
	if d < 0 {
		d = 0
	}
	s.seq++
	ev := &simEvent{
		at:     time.Duration(s.offset.Load()) + d,
		seq:    s.seq,
		ch:     ch,
		period: period,
	}
	heap.Push(&s.events, ev)
	s.gen.Add(1)
	s.cv.Signal()
	return ev
}

// cancel marks an event dead, reporting whether it was still pending.
func (s *Sim) cancel(ev *simEvent) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.state != evPending {
		return false
	}
	ev.state = evCancelled
	if ev.parked {
		s.parked--
	}
	s.gen.Add(1)
	return true
}

// Sleep implements Clock: it parks the goroutine on the event queue
// until virtual time reaches now+d.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	ev := s.scheduleLocked(d, ch, 0)
	ev.parked = true
	s.parked++
	s.mu.Unlock()
	<-ch
}

// sleepCtx is Sleep with early cancellation.
func (s *Sim) sleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	ev := s.scheduleLocked(d, ch, 0)
	ev.parked = true
	s.parked++
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		s.cancel(ev)
		return ctx.Err()
	}
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	s.scheduleLocked(d, ch, 0)
	s.mu.Unlock()
	return ch
}

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	s.mu.Lock()
	ev := s.scheduleLocked(d, ch, 0)
	s.mu.Unlock()
	return &Timer{C: ch, stop: func() bool { return s.cancel(ev) }}
}

// NewTicker implements Clock.
func (s *Sim) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	ch := make(chan time.Time, 1)
	// The ticker re-arms on fire, producing a fresh event each period;
	// Stop must cancel whichever arm is current, so the owner link is
	// installed under the clock lock before the first arm can fire.
	tk := &simTicker{s: s}
	s.mu.Lock()
	ev := s.scheduleLocked(d, ch, d)
	ev.owner = tk
	tk.cur = ev
	s.mu.Unlock()
	return &Ticker{C: ch, stop: tk.stop}
}

// simTicker tracks a ticker's current arm so Stop cancels the live one.
type simTicker struct {
	mu   sync.Mutex
	s    *Sim
	cur  *simEvent
	dead bool
}

func (tk *simTicker) stop() bool {
	tk.mu.Lock()
	tk.dead = true
	ev := tk.cur
	tk.mu.Unlock()
	return tk.s.cancel(ev)
}

// rearm installs the next arm unless the ticker was stopped. Called with
// the Sim lock held.
func (tk *simTicker) rearmLocked(next *simEvent) bool {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if tk.dead {
		return false
	}
	tk.cur = next
	return true
}

// pendingLocked trims cancelled events off the heap top and reports
// whether any pending event remains.
func (s *Sim) pendingLocked() bool {
	for len(s.events) > 0 && s.events[0].state != evPending {
		heap.Pop(&s.events)
	}
	return len(s.events) > 0
}

// advanceLocked pops every pending event at the earliest timestamp, sets
// virtual now to it, and fires them: parked sleepers wake and timer/ticker
// channels receive. Events sharing a timestamp fire in schedule order.
func (s *Sim) advanceLocked() {
	if !s.pendingLocked() {
		return
	}
	at := s.events[0].at
	s.offset.Store(int64(at))
	now := s.base.Add(at)
	for s.pendingLocked() && s.events[0].at == at {
		ev := heap.Pop(&s.events).(*simEvent)
		ev.state = evFired
		if ev.parked {
			s.parked--
		}
		switch {
		case ev.period > 0:
			// Ticker: deliver without blocking (drop when the consumer
			// lags, like time.Ticker) and re-arm.
			select {
			case ev.ch <- now:
			default:
			}
			s.seq++
			next := &simEvent{at: at + ev.period, seq: s.seq, ch: ev.ch, period: ev.period, owner: ev.owner}
			if ev.owner == nil || ev.owner.rearmLocked(next) {
				heap.Push(&s.events, next)
			}
		default:
			ev.ch <- now // buffered by construction; never blocks
		}
	}
	s.gen.Add(1)
	s.advances.Add(1)
}

// run is the advancer: it waits for pending events, lets the runtime
// drain runnable goroutines, and advances once the clock generation has
// been stable for the applicable grace window.
func (s *Sim) run() {
	for {
		s.mu.Lock()
		for !s.stopped && (s.starting > 0 || !s.pendingLocked()) {
			s.cv.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		gen := s.gen.Load()
		fast := s.parked >= s.active
		s.mu.Unlock()

		grace := s.idleGrace
		if fast {
			grace = s.parkGrace
		}
		if !s.quiesce(gen, grace) {
			continue // clock activity — re-evaluate
		}
		s.mu.Lock()
		if !s.stopped && s.gen.Load() == gen && s.pendingLocked() {
			s.advanceLocked()
			if !fast {
				s.idleAdvances.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// quiesce yields the processor until the clock generation has been
// stable for the grace window, reporting false as soon as it moves. The
// yields give runnable goroutines (a just-woken sleeper racing toward
// its next clock call, a scatter child about to park) the chance to
// reach the clock before time advances past them.
func (s *Sim) quiesce(gen uint64, grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		for i := 0; i < 4; i++ {
			runtime.Gosched()
			if s.gen.Load() != gen {
				return false
			}
		}
		if !time.Now().Before(deadline) {
			return s.gen.Load() == gen
		}
	}
}

// Stop halts the advancer and wakes every parked sleeper at the current
// virtual time (pending timer and ticker arms are dropped).
// Call it after the engine driving the clock has shut down; the clock
// remains readable afterwards.
func (s *Sim) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	now := s.base.Add(time.Duration(s.offset.Load()))
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*simEvent)
		if ev.state != evPending {
			continue
		}
		ev.state = evCancelled
		if ev.parked {
			s.parked--
			ev.ch <- now
		}
	}
	s.cv.Broadcast()
	s.mu.Unlock()
}
