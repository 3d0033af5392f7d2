// Package site implements Proteus' data sites (§3): each site stores the
// partition copies placed on it, executes requests on separate OLTP and
// OLAP thread pools (isolating compute between the workloads), runs a
// replication subscriber, tracks per-tier storage usage, and buffers
// operator latency observations for the ASA's polling threads to collect.
package site

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// pool is a fixed-size worker pool.
type pool struct {
	mu     sync.RWMutex
	closed bool
	tasks  chan func()
	wg     sync.WaitGroup
	busy   atomic.Int64
	size   int
	ownCPU atomic.Bool
}

// newPool starts n workers. While ownCPU is set, every task runs on a CPU no
// other such task holds (runOnOwnCPU), so the pool's parallelism does not
// hang on where the kernel last left a thread.
func newPool(n int, ownCPU bool) *pool {
	p := &pool{tasks: make(chan func(), 4*n), size: n}
	p.ownCPU.Store(ownCPU)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				p.busy.Add(1)
				if p.ownCPU.Load() {
					runOnOwnCPU(f)
				} else {
					f()
				}
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Do runs f on the pool and waits for it. It reports false without
// running f if the pool has been stopped (submitting used to panic with a
// send on the closed channel). The read lock is held across the send so
// stop cannot close the channel underneath a racing submitter; workers
// never take the lock, so queued tasks keep draining.
func (p *pool) Do(f func()) bool {
	done := make(chan struct{})
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return false
	}
	p.tasks <- func() {
		defer close(done)
		f()
	}
	p.mu.RUnlock()
	<-done
	return true
}

func (p *pool) stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}

// utilization reports the fraction of workers currently busy.
func (p *pool) utilization() float64 {
	return float64(p.busy.Load()) / float64(p.size)
}

// Config sizes one data site.
type Config struct {
	// OLTPWorkers and OLAPWorkers size the two isolated pools.
	OLTPWorkers int
	OLAPWorkers int
	// ScanWorkers sizes the morsel-scan pool shared by every concurrent
	// analytical query at this site (0 = runtime.GOMAXPROCS).
	ScanWorkers int
	// MemCapacity caps the memory tier in bytes (0 = unlimited); nearing
	// it triggers the ASA's storage-pressure planning (§5.3.2).
	MemCapacity int64
	// Disk configures this site's simulated disk.
	Disk disksim.Config
	// CatchUpDeadline bounds synchronous replica catch-up before the
	// typed timeout surfaces (0 = replication default).
	CatchUpDeadline time.Duration
	// CatchUpBackoff is the yield between catch-up polls (0 = default).
	CatchUpBackoff time.Duration
}

// DefaultConfig returns a modest site sizing.
func DefaultConfig() Config {
	return Config{OLTPWorkers: 4, OLAPWorkers: 2}
}

// Site is one data site.
type Site struct {
	ID      simnet.SiteID
	Factory partition.Factory
	Locks   *txn.LockManager
	Repl    *replication.Replicator
	Dev     *disksim.Device

	cfg  Config
	oltp *pool
	olap *pool
	scan *pool
	down atomic.Bool

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
	if cfg.OLTPWorkers <= 0 {
		cfg.OLTPWorkers = 4
	}
	if cfg.OLAPWorkers <= 0 {
		cfg.OLAPWorkers = 2
	}
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
		oltp:    newPool(cfg.OLTPWorkers, false),
		olap:    newPool(cfg.OLAPWorkers, false),
		scan:    newPool(cfg.ScanWorkers, true),
		parts:   make(map[partition.ID]*partition.Partition),
		masters: make(map[partition.ID]bool),
	}
	s.Repl = replication.New(broker, net, id, brokerSite)
	if cfg.CatchUpDeadline > 0 {
		s.Repl.CatchUpDeadline = cfg.CatchUpDeadline
	}
	if cfg.CatchUpBackoff > 0 {
		s.Repl.PollBackoff = cfg.CatchUpBackoff
	}
	s.Repl.Exec = func(f func()) { _ = s.oltp.Do(f) }
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
	prefix := fmt.Sprintf("site%d.", s.ID)
	s.maintRows = reg.Counter(prefix + "maintain.rows")
	s.maintLat = reg.Recorder(prefix+"maintain.latency", 1<<10)
	s.Repl.SetObs(reg, prefix)
}

// Close stops the worker pools.
func (s *Site) Close() {
	s.oltp.stop()
	s.olap.stop()
	s.scan.stop()
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

// RunOLTP executes f on the OLTP pool (blocking). A crashed or stopped
// site rejects work with a typed faults.ErrSiteDown.
func (s *Site) RunOLTP(f func()) error {
	if s.down.Load() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, s.ID)
	}
	if !s.oltp.Do(f) {
		return fmt.Errorf("%w: site %d (pool stopped)", faults.ErrSiteDown, s.ID)
	}
	return nil
}

// RunOLAP executes f on the OLAP pool (blocking). A crashed or stopped
// site rejects work with a typed faults.ErrSiteDown.
func (s *Site) RunOLAP(f func()) error {
	if s.down.Load() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, s.ID)
	}
	if !s.olap.Do(f) {
		return fmt.Errorf("%w: site %d (pool stopped)", faults.ErrSiteDown, s.ID)
	}
	return nil
}

// RunScan executes f on the morsel-scan pool (blocking). The pool is sized
// to the machine's parallelism and shared by every concurrent query at this
// site, so total scan compute stays bounded no matter how many queries are
// in flight. A crashed or stopped site rejects work with faults.ErrSiteDown.
func (s *Site) RunScan(f func()) error {
	if s.down.Load() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, s.ID)
	}
	if !s.scan.Do(f) {
		return fmt.Errorf("%w: site %d (pool stopped)", faults.ErrSiteDown, s.ID)
	}
	return nil
}

// ScanWorkers reports the size of the morsel-scan pool.
func (s *Site) ScanWorkers() int { return s.cfg.ScanWorkers }

// HostedCopy remembers one copy a crashed site was hosting, so recovery
// can rebuild it from the redo log.
type HostedCopy struct {
	ID     partition.ID
	Master bool
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
		hosted = append(hosted, HostedCopy{ID: id, Master: s.masters[id], Layout: p.Layout()})
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

// CPU reports a utilization signal combining both pools, used as the
// network cost function's CPU argument (Table 1).
func (s *Site) CPU() float64 {
	return (s.oltp.utilization() + s.olap.utilization()) / 2
}

// Observe buffers an operator latency observation for the ASA to collect.
// Observations without features (zone-map-skipped scans) are dropped: they
// carry no signal for the cost models.
func (s *Site) Observe(o cost.Observation) {
	if len(o.Features) == 0 {
		return
	}
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
