// Package replication implements Proteus' lazy per-partition replication
// (§4.2): replica sites subscribe to a partition's redo log, fetch every
// subscribed partition's new records from the broker in one exchange per
// poll (as a Kafka consumer fetches all its partitions on a broker in one
// request) into per-partition queues, and apply them either in the
// background or on demand when a transaction needs a replica caught up to
// a snapshot version (the SSSI freshness wait, whose duration feeds the
// "waiting for updates" cost function of Table 1).
package replication

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/faults"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/simnet"
	"proteus/internal/vclock"
)

// catchUpDeadline bounds a synchronous CatchUp before it returns the typed
// faults.ErrTimeout.
const catchUpDeadline = 5 * time.Second

// pollBackoff is the yield between catch-up polls while waiting for the
// master's commit record.
const pollBackoff = 50 * time.Microsecond

// Replicator manages one site's replica subscriptions.
type Replicator struct {
	broker *redolog.Broker
	net    *simnet.Network
	site   simnet.SiteID
	// Exec, when set, runs background apply batches on the site's
	// transaction-execution resources, so update propagation competes for
	// the same compute as transactions (the paper's replication threads
	// co-operate with transaction execution threads). Synchronous
	// CatchUp calls bypass it to avoid self-deadlock from callers already
	// holding a transaction slot.
	Exec func(func())
	// Workers bounds the subscriptions PollOnce applies concurrently (the
	// per-partition apply pool). <= 1 applies serially.
	Workers int
	// Clk is the clock the poll ticker and catch-up waits run on; nil
	// means the wall clock. Set before Run/CatchUp are first used.
	Clk vclock.Clock
	// brokerSite is where the log broker "runs"; polls charge network
	// round-trips to it (the paper dedicates two machines to Kafka).
	brokerSite simnet.SiteID

	mu   sync.Mutex
	subs map[partition.ID]*subscription

	applied atomic.Int64
	waits   int64
	waitDur time.Duration

	// Optional observability instruments (SetObs).
	obsBatches *obs.Counter // apply batches with at least one record
	obsRecords *obs.Counter // records applied in batches
}

type subscription struct {
	mu     sync.Mutex
	pid    partition.ID
	p      *partition.Partition
	offset int64
	hold   *redolog.Hold    // keeps the log from offset up from truncation
	queue  []redolog.Record // polled but not yet applied
	// dead is set under mu when the subscription is removed. A fetch or
	// PollOnce round snapshots subscription pointers before working through
	// them, so an unsubscribe (failover promotion, master change, replica
	// removal) can race a round still holding the pointer: without the flag
	// the round could apply a stale record to a copy that has since been
	// promoted and taken newer writes, silently regressing committed data.
	dead bool
}

// New creates a replicator for one site.
func New(broker *redolog.Broker, net *simnet.Network, site, brokerSite simnet.SiteID) *Replicator {
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	return &Replicator{
		broker:     broker,
		net:        net,
		site:       site,
		brokerSite: brokerSite,
		Workers:    workers,
		subs:       make(map[partition.ID]*subscription),
	}
}

// SetObs installs apply-batch instruments under the given name prefix:
// <prefix>repl.apply.batches (apply rounds that installed at least one
// record) and <prefix>repl.apply.records (records installed by them).
func (r *Replicator) clock() vclock.Clock { return vclock.OrWall(r.Clk) }

func (r *Replicator) SetObs(reg *obs.Registry, prefix string) {
	r.obsBatches = reg.Counter(prefix + "repl.apply.batches")
	r.obsRecords = reg.Counter(prefix + "repl.apply.records")
}

// Subscribe registers a replica partition, consuming the log from offset.
// The subscription holds the log at the offset it has consumed to, so
// the broker truncates nothing it has yet to fetch.
func (r *Replicator) Subscribe(pid partition.ID, p *partition.Partition, offset int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.subs[pid]; ok {
		kill(old)
	}
	r.subs[pid] = &subscription{pid: pid, p: p, offset: offset, hold: r.broker.Hold(pid, offset)}
}

// kill marks a removed subscription so in-flight poll/apply rounds that
// still hold its pointer become no-ops instead of mutating the copy, and
// releases its hold on the log.
func kill(s *subscription) {
	s.mu.Lock()
	s.dead = true
	s.hold.Release()
	s.mu.Unlock()
}

// Unsubscribe stops replicating a partition (replica removal, §4.4). When
// it returns, no poll or apply will touch the copy again.
func (r *Replicator) Unsubscribe(pid partition.ID) {
	r.mu.Lock()
	s := r.subs[pid]
	delete(r.subs, pid)
	r.mu.Unlock()
	if s != nil {
		kill(s)
	}
}

// Reset drops every subscription — a site crash loses the subscriber's
// in-memory queues and offsets; recovery re-subscribes from the rebuilt
// copies' replay positions.
func (r *Replicator) Reset() {
	r.mu.Lock()
	old := r.subs
	r.subs = make(map[partition.ID]*subscription)
	r.mu.Unlock()
	for _, s := range old {
		kill(s)
	}
}

// Subscribed reports whether the partition is replicated here.
func (r *Replicator) Subscribed(pid partition.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.subs[pid]
	return ok
}

// snapshot lists the current subscriptions.
func (r *Replicator) snapshot() []*subscription {
	r.mu.Lock()
	defer r.mu.Unlock()
	subs := make([]*subscription, 0, len(r.subs))
	for _, s := range r.subs {
		subs = append(subs, s)
	}
	return subs
}

func (r *Replicator) sub(pid partition.ID) *subscription {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.subs[pid]
}

// fetched is one subscription's share of a fetch: the records the broker
// returned from offset from (recs[lo:hi] of the batch) and the offset
// after them.
type fetched struct {
	s      *subscription
	from   int64
	next   int64
	lo, hi int
}

// fetchBatch is a fetch's scratch: every subscription's records in one
// buffer, and each subscription's share of it. Batches are pooled, so a
// tick's fetch allocates nothing once the buffers have grown.
type fetchBatch struct {
	recs []redolog.Record
	got  []fetched
}

var fetchBatches = sync.Pool{New: func() any { return new(fetchBatch) }}

// release returns the batch to the pool with its records zeroed, so the
// pool does not keep applied records' entries alive; a buffer grown past
// queueShedCap by a write burst is dropped instead.
func (b *fetchBatch) release() {
	clear(b.recs)
	clear(b.got)
	if cap(b.recs) >= queueShedCap {
		b.recs = nil
	}
	b.recs, b.got = b.recs[:0], b.got[:0]
	fetchBatches.Put(b)
}

// fetch is the site's one exchange with the log broker: it reads every
// live subscription's new records from its offset and, if any came back,
// receives them all as one replication message carrying their summed
// size. Only a delivered message advances the subscriptions — each queue
// takes its records and its offset moves past them — so a fault between
// this site and the broker (crash, partition, drop) fails the fetch with
// its typed error, advances no offset, and the next fetch reads the same
// records again: none is lost or applied twice. A subscription removed,
// or polled by a concurrent fetch, while the message was in flight is
// skipped; the others still advance. It returns the records queued.
func (r *Replicator) fetch(subs []*subscription) (int, error) {
	if r.net != nil {
		if err := r.net.Reachable(r.brokerSite, r.site); err != nil {
			return 0, err
		}
	}
	b := fetchBatches.Get().(*fetchBatch)
	defer b.release()
	bytes := 0
	for _, s := range subs {
		s.mu.Lock()
		from, dead := s.offset, s.dead
		s.mu.Unlock()
		if dead {
			continue
		}
		lo := len(b.recs)
		var next int64
		b.recs, next = r.broker.PollAppend(b.recs, s.pid, from, 0)
		if len(b.recs) == lo {
			continue
		}
		for i := lo; i < len(b.recs); i++ {
			bytes += b.recs[i].Bytes()
		}
		b.got = append(b.got, fetched{s: s, from: from, next: next, lo: lo, hi: len(b.recs)})
	}
	if len(b.got) == 0 {
		return 0, nil
	}
	if r.net != nil {
		if _, err := r.net.SendKind(simnet.KindReplication, r.brokerSite, r.site, bytes); err != nil {
			return 0, err
		}
	}
	queued := 0
	for _, f := range b.got {
		s := f.s
		s.mu.Lock()
		if !s.dead && s.offset == f.from {
			s.queue = append(s.queue, b.recs[f.lo:f.hi]...)
			s.offset = f.next
			s.hold.Advance(f.next)
			queued += f.hi - f.lo
		}
		s.mu.Unlock()
	}
	return queued, nil
}

// queueShedCap is the backing-array size above which a fully drained
// subscription queue is released instead of recycled, so one write burst
// does not pin a burst-sized array for the life of the subscription.
const queueShedCap = 1024

// applyQueued drains a subscription's queue up to and including version
// upTo (or everything if upTo == 0) as one batch under a single queue-lock
// acquisition. The consumed prefix is recycled in place — records are
// shifted down and the freed tail slots zeroed so applied records'
// entries become collectable (the old head-pop `queue = queue[1:]`
// retained the whole backing array for as long as the subscription lived).
func (r *Replicator) applyQueued(s *subscription, upTo uint64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, nil
	}
	applied := 0
	var err error
	for applied < len(s.queue) {
		rec := s.queue[applied]
		if upTo != 0 && rec.Version > upTo {
			break
		}
		// Skip records at or below the copy's version rather than
		// re-applying them: per-partition versions are strictly increasing,
		// so a low record is a duplicate and re-applying it would clobber
		// newer row data the copy already holds.
		if rec.Version > s.p.Version() {
			if err = redolog.Apply(s.p, rec); err != nil {
				break
			}
		}
		applied++
	}
	if applied > 0 {
		rest := copy(s.queue, s.queue[applied:])
		tail := s.queue[rest:]
		for i := range tail {
			tail[i] = redolog.Record{}
		}
		s.queue = s.queue[:rest]
		if rest == 0 && cap(s.queue) >= queueShedCap {
			s.queue = nil
		}
		r.applied.Add(int64(applied))
		if r.obsBatches != nil {
			r.obsBatches.Inc()
			r.obsRecords.Add(int64(applied))
		}
	}
	return applied, err
}

// PollOnce fetches every subscription's new records in one exchange with
// the broker, then applies everything queued, returning the number of
// records applied. The apply is sharded per partition over up to Workers
// goroutines, the caller's among them, so one lagging partition's apply
// does not delay every other replica's freshness. A failed fetch still
// applies what earlier fetches queued, and one partition's apply error
// does not stop the others: every pending subscription is visited and the
// errors are joined.
func (r *Replicator) PollOnce() (int, error) {
	a := &applyRound{r: r, pending: r.snapshot()}
	if _, err := r.fetch(a.pending); err != nil {
		a.errs = append(a.errs, fmt.Errorf("replication: fetch from broker: %w", err))
	}
	// Only subscriptions with queued records have apply work.
	subs := a.pending
	a.pending = subs[:0]
	for _, s := range subs {
		s.mu.Lock()
		if len(s.queue) > 0 && !s.dead {
			a.pending = append(a.pending, s)
		}
		s.mu.Unlock()
	}
	workers := min(r.Workers, len(a.pending))
	for w := 1; w < workers; w++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.work()
		}()
	}
	a.work()
	a.wg.Wait()
	return int(a.total.Load()), errors.Join(a.errs...)
}

// applyRound is one PollOnce's apply: its workers claim pending
// subscriptions in turn until none is left.
type applyRound struct {
	r       *Replicator
	pending []*subscription
	next    atomic.Int64
	total   atomic.Int64
	mu      sync.Mutex // guards errs
	errs    []error
	wg      sync.WaitGroup
}

func (a *applyRound) work() {
	for {
		i := int(a.next.Add(1)) - 1
		if i >= len(a.pending) {
			return
		}
		s := a.pending[i]
		n, err := a.r.applyQueued(s, 0)
		a.total.Add(int64(n))
		if err != nil {
			a.mu.Lock()
			a.errs = append(a.errs, fmt.Errorf("apply partition %d: %w", s.pid, err))
			a.mu.Unlock()
		}
	}
}

// Drain polls and applies until the replica has consumed every record the
// broker currently retains for the partition — failover uses it to bring
// a promotion candidate fully up to date. It returns the replica's version
// afterwards; a fault on the broker path returns the typed error with the
// version reached so far.
func (r *Replicator) Drain(pid partition.ID) (uint64, error) {
	s := r.sub(pid)
	if s == nil {
		return 0, fmt.Errorf("replication: partition %d not subscribed", pid)
	}
	one := []*subscription{s}
	for {
		n, perr := r.fetch(one)
		if _, err := r.applyQueued(s, 0); err != nil {
			return s.p.Version(), err
		}
		if perr != nil {
			return s.p.Version(), perr
		}
		if n == 0 {
			s.mu.Lock()
			done := len(s.queue) == 0 && s.offset >= r.broker.EndOffset(pid)
			s.mu.Unlock()
			if done {
				return s.p.Version(), nil
			}
		}
	}
}

// CatchUp synchronously brings a replica to at least the given version —
// the cooperation between replication and transaction execution threads the
// paper describes for SSSI. It returns the time spent waiting. The wait is
// bounded by catchUpDeadline, after which the typed faults.ErrTimeout
// surfaces; waiting on a crashed site fails fast with the poll's error.
func (r *Replicator) CatchUp(pid partition.ID, version uint64) (time.Duration, error) {
	s := r.sub(pid)
	if s == nil {
		return 0, fmt.Errorf("replication: partition %d not subscribed", pid)
	}
	clk := r.clock()
	start := clk.Now()
	one := []*subscription{s}
	for s.p.Version() < version {
		pollErr := error(nil)
		if _, err := r.fetch(one); err != nil {
			pollErr = err
			// Keep polling only faults a later poll can outlive (drops,
			// healing partitions); site-down and other terminal errors
			// fail fast — waiting out the deadline cannot fix them.
			if !faults.Retryable(err) || errors.Is(err, faults.ErrSiteDown) {
				return clk.Since(start), err
			}
		}
		if _, err := r.applyQueued(s, version); err != nil {
			return clk.Since(start), err
		}
		if s.p.Version() >= version {
			break
		}
		if clk.Since(start) > catchUpDeadline {
			err := fmt.Errorf("replication: partition %d below version %d (at %d): %w",
				pid, version, s.p.Version(), faults.ErrTimeout)
			if pollErr != nil {
				err = fmt.Errorf("%w (last poll: %v)", err, pollErr)
			}
			return clk.Since(start), err
		}
		// The master may not have appended the commit record yet; yield.
		clk.Sleep(pollBackoff)
	}
	d := clk.Since(start)
	r.mu.Lock()
	r.waits++
	r.waitDur += d
	r.mu.Unlock()
	return d, nil
}

// Offsets snapshots every subscription's consumed offset. Records below a
// subscription's offset are already polled into its queue (the queue holds
// copies); its hold keeps the broker from truncating any record above.
func (r *Replicator) Offsets() map[partition.ID]int64 {
	subs := r.snapshot()
	out := make(map[partition.ID]int64, len(subs))
	for _, s := range subs {
		s.mu.Lock()
		out[s.pid] = s.offset
		s.mu.Unlock()
	}
	return out
}

// Lag reports how many log records the replica has not yet applied.
func (r *Replicator) Lag(pid partition.ID) int64 {
	s := r.sub(pid)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return (r.broker.EndOffset(pid) - s.offset) + int64(len(s.queue))
}

// Run polls in the background until stop is closed (the paper's
// replication threads). interval is the poll period.
func (r *Replicator) Run(interval time.Duration, stop <-chan struct{}) {
	t := r.clock().NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if r.Exec != nil {
				r.Exec(func() { _, _ = r.PollOnce() })
			} else {
				_, _ = r.PollOnce()
			}
		}
	}
}

// Applied reports cumulative applied records.
func (r *Replicator) Applied() int64 { return r.applied.Load() }
