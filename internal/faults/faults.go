// Package faults is the deterministic fault-injection substrate: a
// registry of injectable failures — per-link message drop probability,
// added latency, full network partitions, and site up/down state —
// consulted by the simulated interconnect on every cross-site message.
// Tests, proteus-cli, and the chaos schedule all drive the same registry,
// and a seeded RNG makes every run reproducible. The paper's testbed is a
// physical 18-site cluster where sites, links, and the Kafka broker can
// all fail; this package gives the reproduction the same failure surface.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"proteus/internal/simnet"
	"proteus/internal/vclock"
)

// Typed failure errors. Every cross-site path returns one of these
// (possibly wrapped) instead of hanging or panicking; match with
// errors.Is.
var (
	// ErrSiteDown reports that an endpoint site is crashed.
	ErrSiteDown = errors.New("faults: site down")
	// ErrTimeout reports that an operation exhausted its deadline.
	ErrTimeout = errors.New("faults: deadline exceeded")
	// ErrUnreachable reports that a network partition separates the sites.
	ErrUnreachable = errors.New("faults: sites partitioned")
	// ErrDropped reports that one message was lost on a lossy link.
	ErrDropped = errors.New("faults: message dropped")
	// ErrOverload reports that the admission controller shed the request
	// instead of queuing it: a tenant's token bucket ran dry with a full
	// wait queue, or a backlog guard tripped. The request was never
	// executed — a shed write is never acknowledged. Wrapped instances
	// are usually *OverloadError values carrying a RetryAfter hint.
	ErrOverload = errors.New("faults: overloaded, request shed")
)

// OverloadError is the concrete shed response: it matches ErrOverload via
// errors.Is and carries the admission controller's hints. Extract it with
// errors.As.
type OverloadError struct {
	// Tenant is the quota the request was charged against.
	Tenant string
	// RetryAfter estimates when retrying has a chance of admission
	// (token refill for the queue ahead of this request).
	RetryAfter time.Duration
	// Reason names the limit that shed the request ("tokens", "queue",
	// "backlog", "wait").
	Reason string
}

// Error renders the shed response.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: tenant %q (%s, retry after %v)",
		ErrOverload, e.Tenant, e.Reason, e.RetryAfter.Round(time.Microsecond))
}

// Unwrap makes errors.Is(err, ErrOverload) match.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// RetryAfterHint extracts the retry-after hint from a shed response: ok
// only for an *OverloadError, so a bare ErrOverload, which carries no
// hint, reports (0, false) like anything else.
func RetryAfterHint(err error) (time.Duration, bool) {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

// Retryable reports whether an internal retry may succeed: dropped
// messages and partitions can heal, and a down site can be failed over or
// recovered. Timeouts are terminal — the deadline is already spent — and
// overload sheds are deliberately terminal too: retrying inside the
// engine would rebuild exactly the queue the controller just refused to
// grow. Clients may retry a shed after its RetryAfter hint.
func Retryable(err error) bool {
	if errors.Is(err, ErrOverload) || errors.Is(err, ErrTimeout) {
		return false
	}
	return errors.Is(err, ErrDropped) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrSiteDown)
}

// LinkFault degrades one directed site pair.
type LinkFault struct {
	// Drop is the probability in [0,1] that a message is lost.
	Drop float64
	// Latency is added to every delivered message.
	Latency time.Duration
}

// Registry holds the cluster's current injected faults. It implements
// simnet.FaultPolicy, so installing it on the network makes every
// cross-site message consult it. All methods are safe for concurrent use.
type Registry struct {
	clk   vclock.Clock
	mu    sync.Mutex
	rng   *rand.Rand
	down  map[simnet.SiteID]bool
	links map[[2]simnet.SiteID]LinkFault
	// group assigns sites to partition groups; sites in different groups
	// are mutually unreachable. Ungrouped sites (including the broker and
	// ASA pseudo-sites unless a schedule places them) reach everyone.
	group map[simnet.SiteID]int
}

// New creates an empty registry whose jitter and drop decisions derive
// from seed.
func New(seed int64) *Registry {
	return &Registry{
		clk:   vclock.Wall{},
		rng:   rand.New(rand.NewSource(seed)),
		down:  make(map[simnet.SiteID]bool),
		links: make(map[[2]simnet.SiteID]LinkFault),
	}
}

// SetClock installs the clock Retry backoffs sleep on and measure
// deadlines against. Install before traffic starts (cluster.New does);
// nil restores the wall clock.
func (r *Registry) SetClock(c vclock.Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clk = vclock.OrWall(c)
}

func (r *Registry) clock() vclock.Clock {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clk
}

// InjectedLatency implements simnet.LatencyEstimator: the deterministic
// added latency currently configured on the directed link. Unlike
// Intercept it consumes no randomness and counts no traffic, so cost
// estimators can consult it freely.
func (r *Registry) InjectedLatency(from, to simnet.SiteID) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.links[[2]simnet.SiteID{from, to}].Latency
}

// SetSiteDown marks a site crashed (true) or recovered (false).
func (r *Registry) SetSiteDown(site simnet.SiteID, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if down {
		r.down[site] = true
	} else {
		delete(r.down, site)
	}
}

// DownSites lists the currently crashed sites.
func (r *Registry) DownSites() []simnet.SiteID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]simnet.SiteID, 0, len(r.down))
	for s := range r.down {
		out = append(out, s)
	}
	return out
}

// SetLink installs a directed link fault (drop probability and added
// latency). A zero LinkFault clears the link.
func (r *Registry) SetLink(from, to simnet.SiteID, f LinkFault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]simnet.SiteID{from, to}
	if f.Drop == 0 && f.Latency == 0 {
		delete(r.links, key)
		return
	}
	r.links[key] = f
}

// ClearLinks removes every link fault.
func (r *Registry) ClearLinks() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.links = make(map[[2]simnet.SiteID]LinkFault)
}

// Partition splits the network: sites in different groups cannot exchange
// messages. Sites not named in any group remain reachable from everywhere
// (so a schedule that wants to cut broker access must place the broker's
// pseudo-site in a group). Calling Partition replaces any prior partition.
func (r *Registry) Partition(groups ...[]simnet.SiteID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.group = make(map[simnet.SiteID]int)
	for g, sites := range groups {
		for _, s := range sites {
			r.group[s] = g
		}
	}
}

// Heal removes the network partition.
func (r *Registry) Heal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.group = nil
}

// Partitioned reports whether a network partition is active.
func (r *Registry) Partitioned() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.group) > 0
}

// Check implements simnet.FaultPolicy: it reports whether messages can
// flow between the sites at all (no drop roll, no added latency).
func (r *Registry) Check(from, to simnet.SiteID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.checkLocked(from, to)
}

func (r *Registry) checkLocked(from, to simnet.SiteID) error {
	if r.down[from] {
		return fmt.Errorf("%w: site %d", ErrSiteDown, from)
	}
	if r.down[to] {
		return fmt.Errorf("%w: site %d", ErrSiteDown, to)
	}
	if r.group != nil {
		gf, okf := r.group[from]
		gt, okt := r.group[to]
		if okf && okt && gf != gt {
			return fmt.Errorf("%w: site %d and site %d", ErrUnreachable, from, to)
		}
	}
	return nil
}

// Intercept implements simnet.FaultPolicy: consulted once per message, it
// returns added latency and a delivery error (down endpoint, partition,
// or a seeded drop roll on a lossy link).
func (r *Registry) Intercept(from, to simnet.SiteID, bytes int) (time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.checkLocked(from, to); err != nil {
		return 0, err
	}
	f, ok := r.links[[2]simnet.SiteID{from, to}]
	if !ok {
		return 0, nil
	}
	if f.Drop > 0 && r.rng.Float64() < f.Drop {
		return 0, fmt.Errorf("%w: site %d -> site %d (%d bytes)", ErrDropped, from, to, bytes)
	}
	return f.Latency, nil
}

// Jitter draws a full-jitter backoff delay in [0, max) from the seeded
// RNG (never negative; 0 for max <= 0).
func (r *Registry) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.rng.Int63n(int64(max)))
}

// Backoff parameterizes Retry: exponential delays with full jitter,
// bounded by a total deadline.
type Backoff struct {
	// Base is the first retry's maximum delay (default 100 µs).
	Base time.Duration
	// Max caps the per-retry delay (default 10 ms).
	Max time.Duration
	// Deadline bounds the whole attempt sequence (default 1 s).
	Deadline time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Microsecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Millisecond
	}
	if b.Deadline <= 0 {
		b.Deadline = time.Second
	}
	return b
}

// Retry runs op until it succeeds, fails with a non-retriable error, or
// the deadline expires (returning the last error wrapped in ErrTimeout).
// Site-down errors fail fast — retrying a crashed endpoint is futile until
// failover or recovery, which happen outside the retry loop. Delays use
// seeded full jitter: each sleep is uniform in [0, d) with d doubling from
// Base up to Max.
func (r *Registry) Retry(b Backoff, op func() error) error {
	b = b.withDefaults()
	clk := r.clock()
	start := clk.Now()
	delay := b.Base
	for {
		err := op()
		if err == nil || !Retryable(err) || errors.Is(err, ErrSiteDown) {
			return err
		}
		if clk.Since(start) >= b.Deadline {
			return fmt.Errorf("%w after %v: %v", ErrTimeout, clk.Since(start).Round(time.Microsecond), err)
		}
		clk.Sleep(r.Jitter(delay))
		delay *= 2
		if delay > b.Max {
			delay = b.Max
		}
	}
}
