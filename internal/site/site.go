// Package site implements Proteus' data sites (§3): each site stores the
// partition copies placed on it, bounds the requests it executes by
// separate OLTP, OLAP and morsel-scan slot counts (isolating compute between
// the workloads; each task runs on the goroutine that submits it), runs a
// replication subscriber, tracks per-tier storage usage, and buffers
// operator latency observations for the ASA's polling threads to collect.
package site

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"proteus/internal/cost"
	"proteus/internal/disksim"
	"proteus/internal/faults"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/replication"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/vclock"
)

// slots bounds how many tasks of one class run at once at a site: a task
// takes a slot, runs on the goroutine that submitted it and gives the slot
// back. Submitters wait for a slot in arrival order (a channel's blocked
// senders are served first in, first out).
type slots struct {
	sem chan struct{}
	// ownCPU makes every task run on a CPU no other such task holds
	// (runOnOwnCPU), so the class's parallelism does not hang on where the
	// kernel last left a thread.
	ownCPU atomic.Bool
}

func newSlots(n int) *slots { return &slots{sem: make(chan struct{}, n)} }

// do runs f on the calling goroutine once a slot is free. When it returns,
// f's CPU token is back and its thread unbound.
func (c *slots) do(f func()) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	if c.ownCPU.Load() {
		runOnOwnCPU(f)
	} else {
		f()
	}
}

// utilization reports the fraction of slots taken.
func (c *slots) utilization() float64 { return float64(len(c.sem)) / float64(cap(c.sem)) }

// oltpSlots and olapSlots size a site's two isolated classes.
const (
	oltpSlots = 4
	olapSlots = 2
)

// closedBit marks Site.admitted once Close has run; the bits below it count
// the tasks admitted and not yet returned.
const closedBit = 1 << 62

// Config sizes one data site.
type Config struct {
	// ScanWorkers is how many morsel-scan tasks, from every concurrent
	// analytical query at this site, run at once (0 = runtime.GOMAXPROCS).
	ScanWorkers int
	// MemCapacity caps the memory tier in bytes (0 = unlimited); nearing
	// it triggers the ASA's storage-pressure planning (§5.3.2).
	MemCapacity int64
	// Disk configures this site's simulated disk.
	Disk disksim.Config
}

// Site is one data site.
type Site struct {
	ID      simnet.SiteID
	Factory partition.Factory
	Locks   *txn.LockManager
	Repl    *replication.Replicator
	Dev     *disksim.Device

	cfg  Config
	oltp *slots
	olap *slots
	scan *slots
	down atomic.Bool

	// admitted counts the tasks running or waiting for a slot, with
	// closedBit set by Close; drained is closed once it is set and the
	// count is back to zero.
	admitted           atomic.Int64
	drained            chan struct{}
	closing, drainOnce sync.Once
	// txnsInFlight counts the transactions at RunOLTP, queueing included.
	txnsInFlight atomic.Int64

	mu      sync.RWMutex
	parts   map[partition.ID]*partition.Partition
	masters map[partition.ID]bool

	obsMu sync.Mutex
	obs   []cost.Observation

	// Maintenance instruments (SetObs).
	maintRows *obs.Counter
	maintLat  *obs.Recorder
}

// New creates a site wired to the shared broker and network.
func New(id simnet.SiteID, cfg Config, broker *redolog.Broker, net *simnet.Network, brokerSite simnet.SiteID) *Site {
	if cfg.ScanWorkers <= 0 {
		cfg.ScanWorkers = runtime.GOMAXPROCS(0)
	}
	dev := disksim.New(cfg.Disk)
	s := &Site{
		ID:      id,
		Factory: partition.Factory{Dev: dev},
		Locks:   txn.NewLockManager(),
		Dev:     dev,
		cfg:     cfg,
		oltp:    newSlots(oltpSlots),
		olap:    newSlots(olapSlots),
		scan:    newSlots(cfg.ScanWorkers),
		drained: make(chan struct{}),
		parts:   make(map[partition.ID]*partition.Partition),
		masters: make(map[partition.ID]bool),
	}
	s.scan.ownCPU.Store(true)
	s.Repl = replication.New(broker, net, id, brokerSite)
	// Replication applies share the OLTP slots (§3) but are not
	// transactions: they do not count in OLTPInFlight.
	s.Repl.Exec = func(f func()) { _ = s.run(s.oltp, f) }
	return s
}

// SetClock installs the clock this site's simulated disk charges and
// replication waits run on. Install before traffic starts (cluster.New
// does); nil restores the wall clock. Scan tasks get a CPU each on the wall
// clock only: virtual time has no parallelism to protect, and the simulator
// waits out every thread hand-off before it can advance (the diurnal
// scenario's wall time doubled with binding on).
func (s *Site) SetClock(c vclock.Clock) {
	s.Dev.SetClock(c)
	s.Repl.Clk = c
	_, wall := c.(vclock.Wall)
	s.scan.ownCPU.Store(c == nil || wall)
}

// SetObs installs this site's maintenance instruments: siteN.maintain.rows
// counts delta rows folded by background maintenance; siteN.maintain.latency
// records each partition's fold time.
func (s *Site) SetObs(reg *obs.Registry) {
	prefix := "site" + strconv.Itoa(int(s.ID)) + "."
	s.maintRows = reg.Counter(prefix + "maintain.rows")
	s.maintLat = reg.Recorder(prefix+"maintain.latency", 1<<10)
	s.Repl.SetObs(reg, prefix)
}

// Close stops the site taking tasks: it returns once every task admitted
// before it has returned, and every Run* after it reports
// faults.ErrSiteDown.
func (s *Site) Close() {
	s.closing.Do(func() {
		s.admitted.Add(closedBit + 1) // counted as a task, so leave can close drained
		s.leave()
	})
	<-s.drained
}

// run runs f in one of c's slots, on the calling goroutine; a closed site
// runs nothing.
func (s *Site) run(c *slots, f func()) error {
	defer s.leave()
	if s.admitted.Add(1)&closedBit != 0 {
		return fmt.Errorf("%w: site %d (closed)", faults.ErrSiteDown, s.ID)
	}
	c.do(f)
	return nil
}

// leave uncounts a task. Once closedBit is set, the count's return to zero
// closes drained.
func (s *Site) leave() {
	if s.admitted.Add(-1) == closedBit {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

// up reports faults.ErrSiteDown for a crashed site.
func (s *Site) up() error {
	if s.down.Load() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, s.ID)
	}
	return nil
}

// AddPartition installs a partition copy at this site.
func (s *Site) AddPartition(p *partition.Partition, master bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts[p.ID] = p
	s.masters[p.ID] = master
}

// RemovePartition drops a copy.
func (s *Site) RemovePartition(id partition.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.parts, id)
	delete(s.masters, id)
}

// Partition looks up a hosted copy.
func (s *Site) Partition(id partition.ID) (*partition.Partition, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.parts[id]
	return p, ok
}

// MustPartition looks up a copy or fails.
func (s *Site) MustPartition(id partition.ID) (*partition.Partition, error) {
	if p, ok := s.Partition(id); ok {
		return p, nil
	}
	return nil, fmt.Errorf("site %d: no copy of partition %d", s.ID, id)
}

// IsMaster reports whether this site masters the partition.
func (s *Site) IsMaster(id partition.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.masters[id]
}

// SetMaster flips the mastership flag of a hosted copy.
func (s *Site) SetMaster(id partition.ID, master bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parts[id]; ok {
		s.masters[id] = master
	}
}

// Partitions snapshots the hosted copies.
func (s *Site) Partitions() []*partition.Partition {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*partition.Partition, 0, len(s.parts))
	for _, p := range s.parts {
		out = append(out, p)
	}
	return out
}

// RunOLTP runs f in an OLTP slot, on the calling goroutine, and returns
// once f has. From the call until it returns, queueing for the slot
// included, the transaction counts in OLTPInFlight. A crashed or closed
// site rejects work with a typed faults.ErrSiteDown.
func (s *Site) RunOLTP(f func()) error {
	if err := s.up(); err != nil {
		return err
	}
	s.txnsInFlight.Add(1)
	defer s.txnsInFlight.Add(-1)
	return s.run(s.oltp, f)
}

// OLTPInFlight reports how many transactions are at RunOLTP, running or
// queued for a slot; replication applies are not counted.
func (s *Site) OLTPInFlight() int64 { return s.txnsInFlight.Load() }

// RunOLAP runs f in an OLAP slot, on the calling goroutine, and returns once
// f has. A crashed or closed site rejects work with faults.ErrSiteDown.
func (s *Site) RunOLAP(f func()) error {
	if err := s.up(); err != nil {
		return err
	}
	return s.run(s.olap, f)
}

// RunScan runs f in a morsel-scan slot, on the calling goroutine. There are
// ScanWorkers slots, shared by every concurrent query at this site, so total
// scan compute stays bounded no matter how many queries are in flight. On
// the wall clock f runs with the goroutine's thread bound to a CPU of its
// own; RunScan returns once the CPU token is back and the thread unbound. A
// crashed or closed site rejects work with faults.ErrSiteDown.
func (s *Site) RunScan(f func()) error {
	if err := s.up(); err != nil {
		return err
	}
	return s.run(s.scan, f)
}

// ScanWorkers reports how many morsel-scan tasks run at once.
func (s *Site) ScanWorkers() int { return s.cfg.ScanWorkers }

// HostedCopy remembers one copy a crashed site was hosting, so recovery
// can rebuild it from the redo log. Whether it comes back as the master
// is the directory's to say: a failover may have moved mastership.
type HostedCopy struct {
	ID     partition.ID
	Layout storage.Layout
}

// Down reports whether the site is crashed.
func (s *Site) Down() bool { return s.down.Load() }

// Crash fails the site: all in-memory partition state is dropped, replica
// subscriptions are reset, and subsequent work is rejected with
// faults.ErrSiteDown until Recover. It returns the copies the site was
// hosting (the durable state lives in the redo-log broker). Crashing a
// crashed site is a no-op returning nil.
func (s *Site) Crash() []HostedCopy {
	if !s.down.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	hosted := make([]HostedCopy, 0, len(s.parts))
	for id, p := range s.parts {
		hosted = append(hosted, HostedCopy{ID: id, Layout: p.Layout()})
	}
	s.parts = make(map[partition.ID]*partition.Partition)
	s.masters = make(map[partition.ID]bool)
	s.mu.Unlock()
	s.Repl.Reset()
	s.obsMu.Lock()
	s.obs = nil
	s.obsMu.Unlock()
	return hosted
}

// Recover marks the site up again. The engine rebuilds hosted copies from
// the redo log before calling this, so the site never serves partial
// state.
func (s *Site) Recover() { s.down.Store(false) }

// CPU reports the mean of the OLTP and OLAP classes' busy fractions (slots
// taken over slots), used as the network cost function's CPU argument
// (Table 1).
func (s *Site) CPU() float64 {
	return (s.oltp.utilization() + s.olap.utilization()) / 2
}

// Observe buffers an operator latency observation for the ASA to collect.
func (s *Site) Observe(o cost.Observation) {
	s.obsMu.Lock()
	s.obs = append(s.obs, o)
	s.obsMu.Unlock()
}

// DrainObservations returns and clears the buffered observations (the
// ASA's periodic polling, §3).
func (s *Site) DrainObservations() []cost.Observation {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	out := s.obs
	s.obs = nil
	return out
}

// MemUsage sums the resident bytes of memory-tier copies.
func (s *Site) MemUsage() int64 {
	var total int64
	for _, p := range s.Partitions() {
		if p.Layout().Tier == storage.MemoryTier {
			total += int64(p.Stats().Bytes)
		}
	}
	return total
}

// MemCapacity reports the configured memory cap (0 = unlimited).
func (s *Site) MemCapacity() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cfg.MemCapacity
}

// SetMemCapacity adjusts the memory cap (experiments size it relative to
// loaded data).
func (s *Site) SetMemCapacity(c int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.MemCapacity = c
}

// DiskUsage reports the simulated device usage.
func (s *Site) DiskUsage() int64 { return s.Dev.Used() }

// Maintain runs background storage maintenance on every hosted copy
// (delta merges, disk buffer flushes). Fold costs are observed against the
// layout's write cost function so deferred write work (delta merges) is
// attributed to the layout that deferred it.
func (s *Site) Maintain(threshold int) {
	for _, p := range s.Partitions() {
		// Fold at Latest, not p.Version(): group-committed rows are
		// staged above the installed version until a commit flush
		// installs them, and a fold at the installed version would
		// discard them.
		merged, d, err := p.Maintain(storage.Latest, threshold)
		if err != nil || merged == 0 {
			continue
		}
		if s.maintRows != nil {
			s.maintRows.Add(int64(merged))
			s.maintLat.Record(d)
		}
		cols := len(p.Kinds())
		s.Observe(cost.Observation{
			Op:       cost.OpWrite,
			Layout:   p.Layout(),
			Features: cost.WriteFeatures(merged*cols, p.Stats().Bytes/maxInt(p.Stats().Rows, 1)),
			Latency:  d,
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
