// Package simnet models the cluster interconnect standing in for the
// paper's 10 Gbps network and Thrift RPC layer. Cross-site calls charge a
// configurable per-message latency plus a bandwidth-proportional transfer
// time, so the ASA's cost trade-offs (local vs distributed joins, replica
// placement, §2.2) have the same shape as on a physical cluster. Calls
// within a site are free.
package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/obs"
	"proteus/internal/vclock"
)

// SiteID identifies a data site. The ASA is site -1 by convention.
type SiteID int32

// ASASite is the conventional SiteID of the adaptive storage advisor node.
const ASASite SiteID = -1

// Kind names what a message is for. Every delivered message counts under
// exactly one kind, so the per-kind counters partition the totals.
type Kind uint8

const (
	// KindOther is an untagged Send or Charge (probes and unit tests); the
	// engine names the kind of everything it sends.
	KindOther Kind = iota
	// KindDispatch hands a transaction or query from the ASA to its
	// coordinating site.
	KindDispatch
	// KindRead carries a transaction's batched point reads to a site it
	// only reads from, and their values back.
	KindRead
	// KindPrepare is two-phase commit's first phase, carrying the
	// participant's batched reads; the reply carries their values and the
	// vote.
	KindPrepare
	// KindDecision is the commit decision and its acknowledgement.
	KindDecision
	// KindReplication is redo-log traffic to replicas: broker polls, and
	// synchronous follower writes in the TiDB baseline.
	KindReplication
	// KindScan ships scan results towards a query's coordinator.
	KindScan
	// KindJoin ships join build sides and joined results.
	KindJoin
	// KindLayout carries the ASA's layout, placement and mastership changes.
	KindLayout
	// NumKinds bounds the kinds.
	NumKinds
)

var kindNames = [NumKinds]string{"other", "dispatch", "read", "prepare", "decision", "replication", "scan", "join", "layout"}

// String names the kind as the net.messages.<kind> counters do.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "?"
}

// Config sets the interconnect's performance envelope.
type Config struct {
	// BaseLatency is charged once per message.
	BaseLatency time.Duration
	// BytesPerSecond is the link bandwidth; 0 disables the transfer charge.
	BytesPerSecond float64
}

// DefaultConfig models a fast LAN scaled for second-scale experiments:
// 50 us per message, 1 GB/s.
func DefaultConfig() Config {
	return Config{BaseLatency: 50 * time.Microsecond, BytesPerSecond: 1 << 30}
}

// LinkStats aggregates traffic over one directed site pair.
type LinkStats struct {
	Messages int64
	Bytes    int64
}

// linkCounters is the live, lock-free form of LinkStats: every site pair
// gets its own pair of atomics, so concurrent senders on different links
// never touch the same cache line and senders on the same link only
// contend on two atomic adds (the map itself is read-mostly after the
// first message on a link).
type linkCounters struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// FaultPolicy lets a fault-injection layer (internal/faults) intercept
// cross-site traffic without simnet depending on it.
type FaultPolicy interface {
	// Check reports whether messages can flow between the sites at all
	// (crashed endpoint, network partition). It must not consume
	// randomness: reachability probes call it repeatedly.
	Check(from, to SiteID) error
	// Intercept is consulted once per message; it returns latency to add
	// and a delivery error (down endpoint, partition, or message drop).
	Intercept(from, to SiteID, bytes int) (time.Duration, error)
}

// LatencyEstimator is an optional extension of FaultPolicy: policies that
// inject deterministic link latency expose it here so EstimateLatency can
// price degraded links the same way Send charges them. Without it the
// ASA's cost model sees a healthy network while traffic actually crawls.
type LatencyEstimator interface {
	// InjectedLatency returns the deterministic extra latency currently
	// configured on the directed link (0 when healthy). It must not
	// consume randomness or count as traffic.
	InjectedLatency(from, to SiteID) time.Duration
}

// policyBox wraps the FaultPolicy interface so it can live in an
// atomic.Pointer (interfaces of varying concrete type cannot).
type policyBox struct{ p FaultPolicy }

// Network charges and accounts cross-site traffic. Safe for concurrent use.
type Network struct {
	cfg Config
	clk vclock.Clock

	// links maps [2]SiteID -> *linkCounters. sync.Map because the key set
	// is tiny and stabilizes after startup (sites^2 entries), after which
	// every lookup is a lock-free read.
	links  sync.Map
	policy atomic.Pointer[policyBox]

	// Optional observability instruments (SetObs).
	obsMsgs      *obs.Counter
	obsBytes     *obs.Counter
	obsDropped   *obs.Counter
	obsKindMsgs  [NumKinds]*obs.Counter
	obsKindBytes [NumKinds]*obs.Counter
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, clk: vclock.Wall{}}
}

// SetClock installs the clock latency charges sleep on. Install before
// traffic starts (cluster.New does); nil restores the wall clock.
func (nw *Network) SetClock(c vclock.Clock) {
	nw.clk = vclock.OrWall(c)
}

// SetObs installs interconnect instruments: net.messages and net.bytes
// count cross-site traffic cluster-wide, and net.messages.<kind> and
// net.bytes.<kind> split them by Kind (per-link detail stays in Stats).
func (nw *Network) SetObs(reg *obs.Registry) {
	nw.obsMsgs = reg.Counter("net.messages")
	nw.obsBytes = reg.Counter("net.bytes")
	nw.obsDropped = reg.Counter("net.dropped")
	for k := Kind(0); k < NumKinds; k++ {
		nw.obsKindMsgs[k] = reg.Counter("net.messages." + k.String())
		nw.obsKindBytes[k] = reg.Counter("net.bytes." + k.String())
	}
}

// SetFaults installs a fault policy consulted on every cross-site message.
// Install before traffic starts (cluster.New does); a nil policy means a
// perfect network.
func (nw *Network) SetFaults(p FaultPolicy) {
	if p == nil {
		nw.policy.Store(nil)
		return
	}
	nw.policy.Store(&policyBox{p: p})
}

func (nw *Network) faults() FaultPolicy {
	if box := nw.policy.Load(); box != nil {
		return box.p
	}
	return nil
}

// Reachable reports whether messages can currently flow between the sites
// (no charge, no sleep). With no fault policy the network is perfect.
func (nw *Network) Reachable(from, to SiteID) error {
	if from == to {
		return nil
	}
	if p := nw.faults(); p != nil {
		return p.Check(from, to)
	}
	return nil
}

// link returns the counters for one directed pair, creating them on the
// first message.
func (nw *Network) link(from, to SiteID) *linkCounters {
	key := [2]SiteID{from, to}
	if v, ok := nw.links.Load(key); ok {
		return v.(*linkCounters)
	}
	v, _ := nw.links.LoadOrStore(key, &linkCounters{})
	return v.(*linkCounters)
}

// Send is SendKind for untagged messages (KindOther).
func (nw *Network) Send(from, to SiteID, n int) (time.Duration, error) {
	return nw.SendKind(KindOther, from, to, n)
}

// SendKind models delivering an n-byte message of kind k from one site to
// another: it consults the fault policy, sleeps for the modelled latency
// (base + transfer + injected link latency) and returns it. Failed
// deliveries return the fault's typed error without sleeping. Same-site
// messages are free.
func (nw *Network) SendKind(k Kind, from, to SiteID, n int) (time.Duration, error) {
	if from == to {
		return 0, nil
	}
	var extra time.Duration
	if p := nw.faults(); p != nil {
		var err error
		extra, err = p.Intercept(from, to, n)
		if err != nil {
			if nw.obsDropped != nil {
				nw.obsDropped.Inc()
			}
			return 0, err
		}
	}
	lc := nw.link(from, to)
	lc.messages.Add(1)
	lc.bytes.Add(int64(n))
	if nw.obsMsgs != nil {
		nw.obsMsgs.Inc()
		nw.obsBytes.Add(int64(n))
		nw.obsKindMsgs[k].Inc()
		nw.obsKindBytes[k].Add(int64(n))
	}

	delay := nw.cfg.BaseLatency + extra
	if nw.cfg.BytesPerSecond > 0 {
		delay += time.Duration(float64(n) / nw.cfg.BytesPerSecond * float64(time.Second))
	}
	if delay > 0 {
		nw.clk.Sleep(delay)
	}
	return delay, nil
}

// Charge is ChargeKind for untagged messages (KindOther).
func (nw *Network) Charge(from, to SiteID, n int) time.Duration {
	return nw.ChargeKind(KindOther, from, to, n)
}

// ChargeKind is SendKind for callers that tolerate loss (best-effort
// messages): the fault error, if any, is absorbed and the charged latency
// returned.
func (nw *Network) ChargeKind(k Kind, from, to SiteID, n int) time.Duration {
	d, _ := nw.SendKind(k, from, to, n)
	return d
}

// EstimateLatency predicts the charge for n bytes without sleeping. It
// includes any deterministic fault-injected link latency the policy
// exposes via LatencyEstimator, matching what Send would charge on the
// degraded link (random per-message jitter is by nature not estimable).
func (nw *Network) EstimateLatency(from, to SiteID, n int) time.Duration {
	if from == to {
		return 0
	}
	delay := nw.cfg.BaseLatency
	if nw.cfg.BytesPerSecond > 0 {
		delay += time.Duration(float64(n) / nw.cfg.BytesPerSecond * float64(time.Second))
	}
	if est, ok := nw.faults().(LatencyEstimator); ok {
		delay += est.InjectedLatency(from, to)
	}
	return delay
}

// Stats returns a copy of the traffic counters for one directed link.
func (nw *Network) Stats(from, to SiteID) LinkStats {
	if v, ok := nw.links.Load([2]SiteID{from, to}); ok {
		lc := v.(*linkCounters)
		return LinkStats{Messages: lc.messages.Load(), Bytes: lc.bytes.Load()}
	}
	return LinkStats{}
}

// TotalBytes sums traffic over every link.
func (nw *Network) TotalBytes() int64 {
	var total int64
	nw.links.Range(func(_, v any) bool {
		total += v.(*linkCounters).bytes.Load()
		return true
	})
	return total
}

// TotalMessages sums message counts over every link.
func (nw *Network) TotalMessages() int64 {
	var total int64
	nw.links.Range(func(_, v any) bool {
		total += v.(*linkCounters).messages.Load()
		return true
	})
	return total
}
