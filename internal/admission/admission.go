// Package admission is the engine's multi-tenant QoS front end: every
// client-visible operation (query, transaction, bulk load) passes through
// a Controller before it reaches the engine. Admission is per-tenant
// token-bucket (policy TokenBucket) or a pass-through (AlwaysAdmit, the
// A/B baseline); requests that cannot be admitted immediately wait in one
// of two bounded priority queues — OLTP commits ahead of analytical
// scans — and are shed with a typed *faults.OverloadError carrying a
// RetryAfter hint when a queue is full, the wait bound is exceeded, or
// the write backlog guard trips. Degraded-but-predictable beats dead:
// under overload admitted work keeps its latency profile while the
// excess is refused up front instead of growing unbounded queues inside
// the engine. Decisions read a periodically refreshed ClusterState
// snapshot instead of locking live engine state.
package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/faults"
	"proteus/internal/obs"
	"proteus/internal/vclock"
)

// Priority classes order queue drain: all waiting OLTP work is considered
// before any waiting OLAP work on every grant pass, so transactional
// commits preempt analytical morsels at the admission gate.
type Priority uint8

const (
	// PriorityOLTP is the high class: transactions and bulk loads.
	PriorityOLTP Priority = iota
	// PriorityOLAP is the low class: analytical queries and scans.
	PriorityOLAP
	numPriorities
)

// String names the class for metrics and errors.
func (p Priority) String() string {
	if p == PriorityOLTP {
		return "oltp"
	}
	return "olap"
}

// Policy selects the admission algorithm.
type Policy uint8

const (
	// AlwaysAdmit passes every request through (counting it). This is the
	// overload A/B baseline: queues inside the engine grow without bound.
	AlwaysAdmit Policy = iota
	// TokenBucket admits against per-tenant token buckets with bounded
	// priority wait queues and typed shedding.
	TokenBucket
)

// String names the policy for reports.
func (p Policy) String() string {
	if p == TokenBucket {
		return "token_bucket"
	}
	return "always_admit"
}

// Limits is one tenant's token-bucket shape.
type Limits struct {
	// Rate is the sustained admission rate in requests per second.
	Rate float64
	// Burst is the bucket capacity: how many requests may be admitted
	// back-to-back after idle.
	Burst float64
}

// Config parameterizes a Controller.
type Config struct {
	// Policy selects AlwaysAdmit or TokenBucket.
	Policy Policy
	// Default is the bucket shape for tenants without an explicit entry.
	Default Limits
	// Tenants overrides limits per tenant name.
	Tenants map[string]Limits
	// MaxQueue bounds each priority class's wait queue; arrivals beyond
	// it are shed immediately.
	MaxQueue int
	// MaxWait bounds how long a queued request may wait for a token
	// before it is shed.
	MaxWait time.Duration
	// MaxCommitBacklog sheds OLTP admits while the deepest group-commit
	// queue (from the ClusterState snapshot) exceeds this bound,
	// back-pressuring writers before the flush pipeline drowns.
	// 0 disables the guard.
	MaxCommitBacklog int
	// DripInterval is the cadence of the background grant pass that
	// refills buckets and drains the wait queues. 0 means 200µs.
	DripInterval time.Duration
	// SnapshotInterval is how often the engine refreshes the ClusterState
	// snapshot admission decisions read. 0 means 2ms.
	SnapshotInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Default.Rate <= 0 {
		c.Default.Rate = 2000
	}
	if c.Default.Burst <= 0 {
		c.Default.Burst = 200
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 50 * time.Millisecond
	}
	if c.DripInterval <= 0 {
		c.DripInterval = 200 * time.Microsecond
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 2 * time.Millisecond
	}
	return c
}

// bucket is one tenant's admission state plus its cached instruments.
type bucket struct {
	tenant  string
	limits  Limits
	tokens  float64
	last    time.Time
	waiting int // queued waiters charged to this bucket

	admitted *obs.Counter
	shed     *obs.Counter
	queued   *obs.Counter
	wait     *obs.Recorder
	fill     *obs.Gauge // tokens * 1000, so fractional fill survives the int gauge
}

// refill accrues tokens for the time since the last refill.
func (b *bucket) refill(now time.Time) {
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.limits.Rate
	if b.tokens > b.limits.Burst {
		b.tokens = b.limits.Burst
	}
	b.last = now
}

// retryAfter estimates when a retry has a chance of admission: the token
// deficit (including everyone already queued ahead on this bucket) at the
// bucket's refill rate.
func (b *bucket) retryAfter() time.Duration {
	if b.limits.Rate <= 0 {
		return time.Second
	}
	deficit := (1 - b.tokens) + float64(b.waiting)
	if deficit < 0 {
		deficit = 0
	}
	return time.Duration(deficit / b.limits.Rate * float64(time.Second))
}

// waiter is one queued admission request.
type waiter struct {
	b     *bucket
	pri   Priority
	enq   time.Time
	ready chan error // buffered 1; resolved exactly once
	done  bool       // guarded by Controller.mu: granted, shed, or cancelled
}

// Controller is the admission control plane. One instance fronts one
// engine; all methods are safe for concurrent use.
type Controller struct {
	cfg Config
	reg *obs.Registry
	now func() time.Time
	clk vclock.Clock // drives the background drip ticker

	mu      sync.Mutex
	tenants map[string]*bucket
	queues  [numPriorities][]*waiter
	// live counts non-cancelled waiters per class: cancelled waiters stay
	// in queues until Tick compacts them, so len(queues[pri]) over-counts
	// under cancellation churn and must not drive the MaxQueue bound.
	live   [numPriorities]int
	closed bool // set by Close under mu; Admit sheds immediately after

	state atomic.Pointer[ClusterState]

	manual bool // test clock installed; no background dripper
	stop   chan struct{}
	wg     sync.WaitGroup

	cntAdmitted  *obs.Counter
	cntShed      *obs.Counter
	cntQueued    *obs.Counter
	waitAll      *obs.Recorder
	gaugeQueue   [numPriorities]*obs.Gauge
	gaugeBacklog *obs.Gauge
}

// Option customizes a Controller.
type Option func(*Controller)

// WithClock installs a deterministic clock and disables the background
// grant pass; tests advance time through the clock and call Tick.
func WithClock(now func() time.Time) Option {
	return func(c *Controller) {
		c.now = now
		c.manual = true
	}
}

// WithTimeSource runs the controller on the given vclock.Clock: token
// refills and wait accounting read its Now, and — unlike WithClock — the
// background grant pass keeps running, ticking on the same clock. This is
// what lets the QoS front end run unmodified under the simulation clock.
func WithTimeSource(clk vclock.Clock) Option {
	return func(c *Controller) {
		clk = vclock.OrWall(clk)
		c.clk = clk
		c.now = clk.Now
	}
}

// New creates a Controller recording into reg (a private registry is
// created when reg is nil). Unless a test clock is installed the
// background grant pass starts immediately; Close stops it.
func New(cfg Config, reg *obs.Registry, opts ...Option) *Controller {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Controller{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		now:     time.Now,
		clk:     vclock.Wall{},
		tenants: make(map[string]*bucket),
		stop:    make(chan struct{}),

		cntAdmitted:  reg.Counter("admission.admitted"),
		cntShed:      reg.Counter("admission.shed"),
		cntQueued:    reg.Counter("admission.queued"),
		waitAll:      reg.Recorder("admission.wait", 8192),
		gaugeBacklog: reg.Gauge("admission.commit_backlog"),
	}
	for pri := Priority(0); pri < numPriorities; pri++ {
		c.gaugeQueue[pri] = reg.Gauge("admission.queue." + pri.String())
	}
	for _, opt := range opts {
		opt(c)
	}
	if !c.manual && c.cfg.Policy == TokenBucket {
		c.wg.Add(1)
		go c.drip()
	}
	return c
}

// Policy reports the configured admission policy.
func (c *Controller) Policy() Policy { return c.cfg.Policy }

// SnapshotInterval reports the configured ClusterState refresh period.
func (c *Controller) SnapshotInterval() time.Duration { return c.cfg.SnapshotInterval }

// bucketLocked returns the tenant's bucket, creating it full on first use.
func (c *Controller) bucketLocked(tenant string, now time.Time) *bucket {
	b := c.tenants[tenant]
	if b != nil {
		return b
	}
	limits := c.cfg.Default
	if l, ok := c.cfg.Tenants[tenant]; ok {
		limits = l
	}
	prefix := "admission.tenant." + tenant
	b = &bucket{
		tenant:   tenant,
		limits:   limits,
		tokens:   limits.Burst,
		last:     now,
		admitted: c.reg.Counter(prefix + ".admitted"),
		shed:     c.reg.Counter(prefix + ".shed"),
		queued:   c.reg.Counter(prefix + ".queued"),
		wait:     c.reg.Recorder(prefix+".wait", 4096),
		fill:     c.reg.Gauge(prefix + ".tokens_milli"),
	}
	b.fill.Set(int64(b.tokens * 1000))
	c.tenants[tenant] = b
	return b
}

// shedLocked counts one shed and builds the typed overload error.
func (c *Controller) shedLocked(b *bucket, reason string) error {
	b.shed.Inc()
	c.cntShed.Inc()
	return &faults.OverloadError{Tenant: b.tenant, RetryAfter: b.retryAfter(), Reason: reason}
}

// grantLocked consumes one token and counts the admit.
func (c *Controller) grantLocked(b *bucket) {
	b.tokens--
	b.fill.Set(int64(b.tokens * 1000))
	b.admitted.Inc()
	c.cntAdmitted.Inc()
}

// Admit charges one request to the tenant's bucket, blocking in the
// bounded priority queue when the bucket is dry. It returns nil on
// admission, ctx.Err() when the caller gives up first, and a
// *faults.OverloadError (matching faults.ErrOverload via errors.Is) when
// the request is shed. A shed request was never executed.
func (c *Controller) Admit(ctx context.Context, tenant string, pri Priority) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	now := c.now()
	b := c.bucketLocked(tenant, now)
	if c.closed {
		// The engine is shutting down; nothing will ever drain the queues
		// again, so refuse up front rather than enqueue a waiter that can
		// only leak.
		err := c.shedLocked(b, "closed")
		c.mu.Unlock()
		return err
	}
	if c.cfg.Policy == AlwaysAdmit {
		b.admitted.Inc()
		c.cntAdmitted.Inc()
		c.mu.Unlock()
		return nil
	}
	if pri == PriorityOLTP && c.cfg.MaxCommitBacklog > 0 {
		if st := c.state.Load(); st != nil && st.MaxCommitBacklog > c.cfg.MaxCommitBacklog {
			err := c.shedLocked(b, "backlog")
			c.mu.Unlock()
			return err
		}
	}
	b.refill(now)
	// Immediate grant only when nobody is queued on this bucket: a new
	// arrival must not jump ahead of waiters; priority order is enforced
	// by the grant pass, not by arrival luck.
	if b.waiting == 0 && b.tokens >= 1 {
		c.grantLocked(b)
		c.mu.Unlock()
		c.waitAll.Record(0)
		b.wait.Record(0)
		return nil
	}
	if c.live[pri] >= c.cfg.MaxQueue {
		err := c.shedLocked(b, "queue")
		c.mu.Unlock()
		return err
	}
	w := &waiter{b: b, pri: pri, enq: now, ready: make(chan error, 1)}
	c.queues[pri] = append(c.queues[pri], w)
	c.live[pri]++
	b.waiting++
	b.queued.Inc()
	c.cntQueued.Inc()
	c.gaugeQueue[pri].Add(1)
	c.mu.Unlock()

	// The grant that resolves this wait comes from virtual-time progress
	// (the drip ticker or another request's release), so let a simulated
	// clock treat the queued goroutine as parked.
	release := vclock.Park(c.clk)
	defer release()

	select {
	case err := <-w.ready:
		if err == nil {
			d := c.now().Sub(w.enq)
			c.waitAll.Record(d)
			b.wait.Record(d)
		}
		return err
	case <-ctx.Done():
		c.mu.Lock()
		if !w.done {
			// Still queued: abandon in place; the grant pass skips and
			// compacts cancelled waiters.
			w.done = true
			c.live[pri]--
			b.waiting--
			c.gaugeQueue[pri].Add(-1)
			c.mu.Unlock()
			return ctx.Err()
		}
		c.mu.Unlock()
		// Resolved concurrently with the cancel. Consume the verdict and
		// return a granted token — the caller is leaving either way.
		if err := <-w.ready; err == nil {
			c.mu.Lock()
			b.tokens++
			if b.tokens > b.limits.Burst {
				b.tokens = b.limits.Burst
			}
			b.fill.Set(int64(b.tokens * 1000))
			c.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Tick runs one grant pass at the current clock: refill every bucket,
// shed waiters past MaxWait, and hand out available tokens — all queued
// OLTP before any queued OLAP. The background dripper calls this; tests
// with a manual clock call it directly.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, b := range c.tenants {
		b.refill(now)
	}
	for pri := Priority(0); pri < numPriorities; pri++ {
		q := c.queues[pri]
		keep := q[:0]
		for _, w := range q {
			switch {
			case w.done: // cancelled; drop
			case now.Sub(w.enq) > c.cfg.MaxWait:
				w.done = true
				c.live[pri]--
				w.b.waiting--
				c.gaugeQueue[pri].Add(-1)
				w.ready <- c.shedLocked(w.b, "wait")
			case w.b.tokens >= 1:
				w.done = true
				c.live[pri]--
				w.b.waiting--
				c.gaugeQueue[pri].Add(-1)
				c.grantLocked(w.b)
				w.ready <- nil
			default:
				keep = append(keep, w)
			}
		}
		for i := len(keep); i < len(q); i++ {
			q[i] = nil
		}
		c.queues[pri] = keep
	}
}

// QueueDepth reports how many requests are waiting in the class's queue.
func (c *Controller) QueueDepth(pri Priority) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live[pri]
}

// Tokens reports the tenant's current bucket fill (for tests and gauges).
func (c *Controller) Tokens(tenant string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bucketLocked(tenant, c.now())
	b.refill(c.now())
	return b.tokens
}

// drip is the background grant pass.
func (c *Controller) drip() {
	defer c.wg.Done()
	t := c.clk.NewTicker(c.cfg.DripInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.Tick()
		case <-c.stop:
			return
		}
	}
}

// Close stops the background grant pass and sheds every queued waiter, so
// no Admit call outlives the engine. The closed flag is raised under the
// mutex before the shed pass: any Admit that enqueued earlier is drained
// here, and any Admit arriving later sheds on entry instead of queueing
// into a controller nothing will ever drain again. Safe to call more than
// once.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	for pri := Priority(0); pri < numPriorities; pri++ {
		for _, w := range c.queues[pri] {
			if w.done {
				continue
			}
			w.done = true
			c.live[pri]--
			w.b.waiting--
			c.gaugeQueue[pri].Add(-1)
			w.ready <- c.shedLocked(w.b, "closed")
		}
		c.queues[pri] = nil
	}
}
