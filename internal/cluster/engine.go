// Package cluster assembles Proteus: data sites, the shared redo-log
// broker, the simulated interconnect, the planner, the learned cost model
// and the adaptive storage advisor, behind one Engine that executes OLTP
// transactions and OLAP queries (§3). The Engine also implements the
// comparison architectures of §6.2 — a static row store (RS), a static
// column store (CS), Janus-style and TiDB-style dual-format full
// replication — as configuration modes over the same substrate, mirroring
// how the paper implements its baselines "in Proteus" for apples-to-apples
// comparison.
package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"proteus/internal/admission"
	"proteus/internal/colstore"
	"proteus/internal/cost"
	"proteus/internal/disksim"
	"proteus/internal/exec"
	"proteus/internal/faults"
	"proteus/internal/forecast"
	"proteus/internal/metadata"
	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/plan"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/site"
	"proteus/internal/storage"
	"proteus/internal/txn"
	"proteus/internal/vclock"
)

// Mode selects the system architecture under evaluation (§6.2).
type Mode uint8

const (
	// ModeProteus is the full adaptive system.
	ModeProteus Mode = iota
	// ModeRowStore stores everything in row format, statically.
	ModeRowStore
	// ModeColumnStore stores everything in column format, statically.
	ModeColumnStore
	// ModeJanus fully replicates every partition in both formats; OLTP
	// executes on rows, OLAP on lazily-maintained column replicas.
	ModeJanus
	// ModeTiDB fully replicates like Janus but charges Raft-quorum
	// synchronous replication on writes and routes reads by cost.
	ModeTiDB
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeProteus:
		return "proteus"
	case ModeRowStore:
		return "rowstore"
	case ModeColumnStore:
		return "columnstore"
	case ModeJanus:
		return "janus"
	case ModeTiDB:
		return "tidb"
	}
	return "?"
}

// Config parameterizes an Engine.
type Config struct {
	// Clock is the time source every modelled latency, backoff, deadline
	// and background ticker runs on. nil means the wall clock (production
	// and existing benches); cmd/proteus-sim installs a vclock.Sim so
	// hours of simulated traffic run in seconds.
	Clock vclock.Clock

	Mode     Mode
	NumSites int
	Site     site.Config
	Net      simnet.Config
	Tracker  forecast.Config
	// ReplicationInterval is the background replica poll period.
	ReplicationInterval time.Duration
	// MaintainInterval is the background storage-maintenance period
	// (delta merges, disk flushes).
	MaintainInterval time.Duration
	// RedoRetention is how many records each redo-log topic keeps below
	// its checkpoint offset when the maintenance loop trims it, and how
	// long a topic's tail grows before the loop folds it into the
	// checkpoint. Subscribers and copies being built need no slack: they
	// hold the log themselves (redolog.Hold). 0 disables the slack.
	RedoRetention int64
	// Adapt holds the ASA feature switches (ablation study, §6.3.7);
	// ignored outside ModeProteus.
	Adapt AdaptConfig
	// FaultSeed seeds the fault-injection registry: drop rolls, retry
	// jitter and chaos schedules derive from it, making failure runs
	// reproducible.
	FaultSeed int64
	// OpDeadline bounds each client-visible operation (query or
	// transaction) across all its retries; expiry surfaces the typed
	// faults.ErrTimeout. 0 means the 2 s default.
	OpDeadline time.Duration
	// RetryBase is the first retry's maximum backoff delay (full jitter,
	// doubling per attempt). 0 means the 200 µs default.
	RetryBase time.Duration
	// MorselRows sizes the parallel scan executor's scheduling quantum
	// (rows per morsel), which is also the batch length of every scan
	// whose sink folds batches in place (aggregates, column chunks, join
	// probes). 0 means exec.DefaultMorselRows.
	MorselRows int
	// ScanBatchRows bounds one batch of a streaming scan, which its
	// workers box and hand to a cursor. 0 means exec.DefaultBatchRows.
	ScanBatchRows int
	// Admission configures the multi-tenant QoS front end. The zero value
	// is policy AlwaysAdmit: every request passes straight through (no
	// background work, no shedding), preserving the pre-admission
	// behavior for tests and baselines.
	Admission admission.Config
	// JoinSpillBudget is the in-memory build-side byte budget above which a
	// batch hash join grace-partitions its keys through the simulated spill
	// device. 0 (or negative) means a 64 MiB default.
	JoinSpillBudget int64
}

// deltaThreshold is the count of buffered rows at which maintenance
// merges a column copy's delta or flushes a disk row copy's buffer.
const deltaThreshold = 256

// raftFollowers is the number of synchronous Raft followers charged per
// write in ModeTiDB.
const raftFollowers = 2

// DefaultConfig returns a small cluster sizing suitable for tests.
func DefaultConfig() Config {
	return Config{
		Mode:                ModeProteus,
		NumSites:            2,
		Net:                 simnet.DefaultConfig(),
		Tracker:             forecast.DefaultConfig(),
		ReplicationInterval: 5 * time.Millisecond,
		MaintainInterval:    20 * time.Millisecond,
		RedoRetention:       256,
		Adapt:               DefaultAdaptConfig(),
		OpDeadline:          2 * time.Second,
		RetryBase:           200 * time.Microsecond,
	}
}

// Engine is a running Proteus cluster.
type Engine struct {
	cfg Config
	clk vclock.Clock

	Catalog *schema.Catalog
	Dir     *metadata.Directory
	Model   *cost.Model
	Planner *plan.Planner
	Epoch   *plan.Epoch
	Net     *simnet.Network
	Broker  *redolog.Broker
	Deps    *txn.DependencyTracker
	Locks   *txn.LockManager
	Sites   []*site.Site

	Advisor *Advisor // nil unless ModeProteus

	// gc is the group-commit pipeline: per-master-site queues whose
	// leaders — committing transactions — batch redo appends and version
	// installs off the partition-lock critical path.
	gc *groupCommit

	// Faults is the cluster's fault-injection registry, installed as the
	// interconnect's fault policy. Tests, the chaos harness and the CLI's
	// fault commands all drive it.
	Faults *faults.Registry

	// Adm is the admission controller fronting every client-visible
	// operation.
	Adm *admission.Controller

	// Obs is the cluster-wide metrics registry (simnet traffic, redo-log
	// broker, per-site maintenance); Trace is the ASA decision trace
	// (empty outside ModeProteus).
	Obs   *obs.Registry
	Trace *obs.DecisionTrace

	stats Stats

	// crashed remembers what each down site hosted, for recovery replay.
	crashMu sync.Mutex
	crashed map[simnet.SiteID][]site.HostedCopy

	// Failure instruments.
	cntRetries    *obs.Counter
	cntTimeouts   *obs.Counter
	cntCrashes    *obs.Counter
	cntRecoveries *obs.Counter
	cntFailovers  *obs.Counter
	recoveryLat   *obs.Recorder

	// snaps registers every snapshot in use; the maintenance tick derives
	// the version-reclamation horizon from it.
	snaps *snapRegistry
	// maintMu serializes maintenance ticks.
	maintMu sync.Mutex

	// Maintenance-tick instruments: how long one tick took, the dependency
	// tracker's size as the tick left it, and the row versions it
	// reclaimed and left standing.
	recMaintainTick      *obs.Recorder
	gaugeDepsEntries     *obs.Gauge   // entries retained over all partitions
	cntDepsFolded        *obs.Counter // entries folded into base entries
	gaugeVersionsKept    *obs.Gauge   // row versions retained over all row-store copies
	cntVersionsReclaimed *obs.Counter // row versions reclaimed

	// Morsel-executor instruments.
	cntMorselsScheduled *obs.Counter // units actually handed to workers
	cntMorselsPruned    *obs.Counter // units skipped by zone maps at build
	cntMorselsStitched  *obs.Counter // units built across vertical pieces
	cntMorselRows       *obs.Counter // rows produced by morsel scans
	cntScanBatches      *obs.Counter // result batches shipped coordinator-ward
	cntScanYields       *obs.Counter // feeder yields to in-flight OLTP work
	recMorselsPerQuery  *obs.Recorder

	// spill is the simulated disk backing batch-join grace partitioning.
	spill *disksim.Device

	tableMax map[schema.TableID]schema.RowID

	txnID uint64
	tmu   sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds and starts an engine.
func New(cfg Config) *Engine {
	if cfg.NumSites <= 0 {
		cfg.NumSites = 1
	}
	e := &Engine{
		cfg:      cfg,
		clk:      vclock.OrWall(cfg.Clock),
		Catalog:  schema.NewCatalog(),
		Dir:      metadata.NewDirectory(cfg.Tracker),
		Model:    cost.NewModel(),
		Epoch:    &plan.Epoch{},
		Net:      simnet.New(cfg.Net),
		Broker:   redolog.NewBroker(),
		Deps:     txn.NewDependencyTracker(),
		snaps:    newSnapRegistry(),
		Locks:    txn.NewLockManager(),
		Obs:      obs.NewRegistry(),
		Trace:    obs.NewDecisionTrace(4096),
		Faults:   faults.New(cfg.FaultSeed),
		crashed:  make(map[simnet.SiteID][]site.HostedCopy),
		spill:    disksim.New(disksim.DefaultConfig()),
		tableMax: make(map[schema.TableID]schema.RowID),
		stop:     make(chan struct{}),
	}
	e.Net.SetClock(e.clk)
	e.Net.SetObs(e.Obs)
	e.Net.SetFaults(e.Faults)
	e.Faults.SetClock(e.clk)
	e.spill.SetClock(e.clk)
	e.Broker.SetObs(e.Obs)
	e.cntRetries = e.Obs.Counter("faults.retries")
	e.cntTimeouts = e.Obs.Counter("faults.timeouts")
	e.cntCrashes = e.Obs.Counter("faults.crashes")
	e.cntRecoveries = e.Obs.Counter("faults.recoveries")
	e.cntFailovers = e.Obs.Counter("faults.failovers")
	e.recoveryLat = e.Obs.Recorder("faults.recovery.replay", 1<<8)
	e.recMaintainTick = e.Obs.Recorder("maintain.tick_us", 1<<8)
	e.gaugeDepsEntries = e.Obs.Gauge("txn.deps_entries")
	e.cntDepsFolded = e.Obs.Counter("txn.deps_folded")
	e.gaugeVersionsKept = e.Obs.Gauge("rowstore.versions_retained")
	e.cntVersionsReclaimed = e.Obs.Counter("rowstore.versions_reclaimed")
	e.cntMorselsScheduled = e.Obs.Counter("exec.morsels.scheduled")
	e.cntMorselsPruned = e.Obs.Counter("exec.morsels.pruned")
	e.cntMorselsStitched = e.Obs.Counter("exec.morsels.stitched")
	e.cntMorselRows = e.Obs.Counter("exec.morsels.rows")
	e.cntScanBatches = e.Obs.Counter("exec.scan.batches")
	e.cntScanYields = e.Obs.Counter("admission.scan.preempt_yields")
	e.recMorselsPerQuery = e.Obs.Recorder("exec.morsels.per_query", 1<<10)
	e.Adm = admission.New(cfg.Admission, e.Obs, admission.WithTimeSource(e.clk))
	e.Obs.Gauge("admission.policy").Set(int64(cfg.Admission.Policy))
	for i := 0; i < cfg.NumSites; i++ {
		s := site.New(simnet.SiteID(i), cfg.Site, e.Broker, e.Net, simnet.ASASite)
		s.SetClock(e.clk)
		s.SetObs(e.Obs)
		e.Sites = append(e.Sites, s)
	}
	e.Planner = &plan.Planner{
		Dir:       e.Dir,
		Model:     e.Model,
		Decisions: plan.NewDecisionCache(),
		Plans:     plan.NewPlanCache(),
		Epoch:     e.Epoch,
		MaxRow:    schema.RowID(1) << 62,
	}
	if cfg.Mode == ModeProteus {
		e.Advisor = newAdvisor(e, cfg.Adapt)
	}
	e.gc = newGroupCommit(e)
	e.startBackground()
	return e
}

func (e *Engine) startBackground() {
	if e.cfg.ReplicationInterval > 0 {
		for _, s := range e.Sites {
			s := s
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				s.Repl.Run(e.cfg.ReplicationInterval, e.stop)
			}()
		}
	}
	if e.cfg.MaintainInterval > 0 {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			t := e.clk.NewTicker(e.cfg.MaintainInterval)
			defer t.Stop()
			for {
				select {
				case <-e.stop:
					return
				case <-t.C:
					e.maintain()
				}
			}
		}()
	}
	e.startAdmissionRefresher()
	if e.Advisor != nil {
		e.Advisor.start()
	} else {
		// Baseline modes manage the memory/disk boundary with LRU (§6.2);
		// the loop is a no-op until a memory capacity is set.
		e.startTiering(200 * time.Millisecond)
	}
}

// maintain is one maintenance tick: storage maintenance at every live
// site, cost observations into the model, redo-log checkpoints and
// truncation, then one watermark pass: the lowest version installed on a
// live copy of each partition, read once, folds the dependency tracker
// and — lowered to the oldest registered snapshot — is the horizon below
// which every row-store copy reclaims its versions.
func (e *Engine) maintain() {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	start := e.clk.Now()
	defer func() { e.recMaintainTick.Record(e.clk.Since(start)) }()
	for _, s := range e.Sites {
		if s.Down() {
			continue
		}
		s.Maintain(deltaThreshold)
	}
	e.drainObservations()
	e.checkpointAndTruncate()
	low := e.readLow()
	e.foldDeps(low)
	e.collectVersions(e.snaps.horizon(low))
}

// readLow reads the lowest version installed on a live copy of each
// partition.
func (e *Engine) readLow() txn.VersionVector {
	low := make(txn.VersionVector)
	for _, s := range e.Sites {
		if s.Down() {
			continue
		}
		for _, p := range s.Partitions() {
			if cur, seen := low[p.ID]; !seen || p.Version() < cur {
				low[p.ID] = p.Version()
			}
		}
	}
	return low
}

// collectVersions has every row-store copy on a live site reclaim the
// versions below its partition's horizon, masters and replicas alike.
func (e *Engine) collectVersions(h txn.VersionVector) {
	var reclaimed, retained int
	for _, s := range e.Sites {
		if s.Down() {
			continue
		}
		for _, p := range s.Partitions() {
			n, kept := p.GC(h[p.ID])
			reclaimed, retained = reclaimed+n, retained+kept
		}
	}
	e.cntVersionsReclaimed.Add(int64(reclaimed))
	e.gaugeVersionsKept.Set(int64(retained))
}

// SetMemCapacityPerSite caps every site's memory tier (0 = unlimited).
func (e *Engine) SetMemCapacityPerSite(c int64) {
	for _, s := range e.Sites {
		s.SetMemCapacity(c)
	}
}

// MasterMemUsage sums memory-tier bytes of master copies only — the
// single-copy footprint of the database, independent of how many replicas
// a mode mandates.
func (e *Engine) MasterMemUsage() int64 {
	var total int64
	for _, s := range e.Sites {
		for _, p := range s.Partitions() {
			if s.IsMaster(p.ID) && p.Layout().Tier == storage.MemoryTier {
				total += int64(p.Stats().Bytes)
			}
		}
	}
	return total
}

// drainObservations collects buffered site observations into the shared
// cost model (the ASA's polling threads, §3).
func (e *Engine) drainObservations() {
	for _, s := range e.Sites {
		for _, o := range s.DrainObservations() {
			e.Model.Observe(o)
		}
	}
}

// checkpointAndTruncate maintains each topic's durability floor: it has the
// broker fold the log tail into the checkpoint of every partition whose log
// has grown RedoRetention records past it (redolog.FoldCheckpoint — no
// partition is locked, read or asked anything), then trims records no
// longer needed by either a replica subscription or crash recovery (the
// paper's Kafka retention plus its snapshot store, §4.3). It asks for the
// log below the checkpoint offset less a RedoRetention slack, so a topic
// is trimmed only below what its image already holds, and the broker
// keeps whatever a subscription has yet to fetch or a copy being built
// has yet to replay (redolog.Hold).
func (e *Engine) checkpointAndTruncate() {
	for _, pid := range e.Broker.Topics() {
		e.Broker.FoldCheckpoint(pid, e.cfg.RedoRetention)
		if floor := e.Broker.CheckpointOffset(pid) - e.cfg.RedoRetention; floor > 0 {
			e.Broker.Truncate(pid, floor)
		}
	}
}

// foldDeps keeps the dependency tracker flat in run length: per partition,
// every entry at or below the lowest version installed on a live copy
// (low) folds into one base entry. snapshotFor starts from a live copy's
// installed version (raised by the session), so its lookups land at or
// above the base and close exactly as before; one that does start lower — a
// copy that appeared after this reading — is moved forward by the base,
// never torn.
func (e *Engine) foldDeps(low txn.VersionVector) {
	if e.Deps.Entries() == 0 {
		e.gaugeDepsEntries.Set(0)
		return // read-only workloads record nothing
	}
	e.cntDepsFolded.Add(int64(e.Deps.Forget(low)))
	e.gaugeDepsEntries.Set(int64(e.Deps.Entries()))
}

// Close stops background work and the sites. The admission controller
// closes first so queued waiters shed instead of blocking shutdown. The
// group-commit queues need no draining: every enqueued group is flushed
// by its site's leader, a committing transaction that finishes before
// it gives its site's OLTP slot back.
func (e *Engine) Close() {
	e.Adm.Close()
	close(e.stop)
	e.wg.Wait()
	for _, s := range e.Sites {
		s.Close()
	}
}

// Mode reports the configured architecture.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// Clock reports the engine's time source (the wall clock unless a
// virtual clock was configured).
func (e *Engine) Clock() vclock.Clock { return e.clk }

// nextTxnID issues transaction identifiers.
func (e *Engine) nextTxnID() uint64 {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	e.txnID++
	return e.txnID
}

// initialLayout is the mode's starting layout for OLTP-facing copies.
func (e *Engine) initialLayout() storage.Layout {
	if e.cfg.Mode == ModeColumnStore {
		return storage.DefaultColumnLayout()
	}
	return storage.DefaultRowLayout()
}

// TableSpec describes a table's initial physical design. Baseline modes
// receive workload-aware placement (the Schism advantage of §6.2) through
// these fields; Proteus starts from the same neutral partitioning and
// adapts on its own.
type TableSpec struct {
	Name string
	Cols []schema.Column
	// MaxRows bounds the row_id space (inserts must stay below it).
	MaxRows schema.RowID
	// Partitions is the initial horizontal partition count (>=1).
	Partitions int
	// PlaceAt optionally pins partition i to a site (Schism-style
	// placement); nil means round-robin.
	PlaceAt func(part int) simnet.SiteID
	// ReplicateAll installs a full replica at every site but the master's
	// (used for read-only tables by the advantaged baselines), in place of
	// the column replica Janus and TiDB add to every other table.
	ReplicateAll bool
	// ReplicaLayout is the layout of ReplicateAll copies; zero value
	// means compressed columns.
	ReplicaLayout *storage.Layout
}

// CreateTable defines a table and its initial partitions.
func (e *Engine) CreateTable(spec TableSpec) (*schema.Table, error) {
	tbl, err := e.Catalog.Create(spec.Name, spec.Cols)
	if err != nil {
		return nil, err
	}
	if spec.Partitions <= 0 {
		spec.Partitions = 1
	}
	if spec.MaxRows <= 0 {
		spec.MaxRows = 1 << 30
	}
	e.tableMax[tbl.ID] = spec.MaxRows
	avg := make([]float64, len(spec.Cols))
	for i, c := range spec.Cols {
		if c.AvgSize > 0 {
			avg[i] = c.AvgSize
		} else {
			avg[i] = float64(c.Kind.FixedWidth())
		}
	}
	e.Dir.InitColStats(tbl.ID, avg)

	kinds := tbl.Kinds()
	layout := e.initialLayout()
	per := int64(spec.MaxRows) / int64(spec.Partitions)
	for i := 0; i < spec.Partitions; i++ {
		lo := schema.RowID(int64(i) * per)
		hi := schema.RowID(int64(i+1) * per)
		if i == spec.Partitions-1 {
			hi = spec.MaxRows
		}
		siteID := simnet.SiteID(i % len(e.Sites))
		if spec.PlaceAt != nil {
			siteID = spec.PlaceAt(i)
		}
		b := partition.Bounds{Table: tbl.ID, RowStart: lo, RowEnd: hi, ColStart: 0, ColEnd: schema.ColID(len(kinds))}
		pid := e.Dir.AllocID()
		p := partition.New(pid, b, kinds, layout, e.siteOf(siteID).Factory)
		e.siteOf(siteID).AddPartition(p, true)
		e.Broker.CreateTopic(pid, kinds...)
		meta := e.Dir.Register(pid, b, metadata.Replica{Site: siteID, Layout: layout}, p.ZoneMap())
		if !spec.ReplicateAll {
			if err := e.installModeReplicas(meta); err != nil {
				return nil, err
			}
			continue
		}
		rl := storage.Layout{Format: storage.ColumnFormat, Tier: storage.MemoryTier, SortBy: storage.NoSort, Compressed: true}
		if spec.ReplicaLayout != nil {
			rl = *spec.ReplicaLayout
		}
		for _, s := range e.Sites {
			if s.ID == siteID {
				continue
			}
			if err := e.addReplica(pid, s.ID, rl); err != nil {
				return nil, err
			}
		}
	}
	return tbl, nil
}

// installModeReplicas adds the dual-format copies Janus and TiDB mandate:
// every partition gains a full column-format replica (placed at the next
// site so each site hosts a share of both the row and column stores). The
// row master serves OLTP; the column replica serves OLAP with lazy update
// propagation, as in §6.2.
func (e *Engine) installModeReplicas(meta *metadata.PartitionMeta) error {
	if e.cfg.Mode != ModeJanus && e.cfg.Mode != ModeTiDB {
		return nil
	}
	if len(e.Sites) < 2 {
		return nil // a second full copy needs a second store location
	}
	target := simnet.SiteID((int(meta.Master().Site) + 1) % len(e.Sites))
	return e.addReplica(meta.ID, target, storage.DefaultColumnLayout())
}

// siteOf resolves a site ID.
func (e *Engine) siteOf(id simnet.SiteID) *site.Site { return e.Sites[int(id)] }

// LoadRows bulk-loads initial table data through the master partitions
// (and any already-installed replicas): each partition's image is built
// from its rows, loads every copy and becomes the partition's checkpoint.
// ctx cancellation aborts between partitions.
func (e *Engine) LoadRows(ctx context.Context, table schema.TableID, rows []schema.Row) error {
	if err := e.admit(ctx, admission.PriorityOLTP); err != nil {
		return err
	}
	byPart := map[partition.ID][]schema.Row{}
	metas := map[partition.ID]*metadata.PartitionMeta{}
	var pieces []*metadata.PartitionMeta
	for _, r := range rows {
		pieces = e.Dir.AppendForRow(pieces[:0], table, r.ID, nil)
		if len(pieces) == 0 {
			return fmt.Errorf("cluster: no partition for table %d row %d", table, r.ID)
		}
		for _, m := range pieces {
			metas[m.ID] = m
			lo, hi := int(m.Bounds.ColStart), int(m.Bounds.ColEnd)
			byPart[m.ID] = append(byPart[m.ID], schema.Row{ID: r.ID, Vals: r.Vals[lo:hi]})
		}
	}
	for pid, prows := range byPart {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := metas[pid]
		kinds, err := e.partitionKinds(m.Bounds)
		if err != nil {
			return err
		}
		img, err := storage.ImageOf(kinds, prows)
		if err != nil {
			return err
		}
		for _, rep := range m.AllCopies() {
			s := e.siteOf(rep.Site)
			p, ok := s.Partition(pid)
			if !ok {
				continue
			}
			if err := p.LoadImage(img, 1); err != nil {
				return err
			}
		}
		// Bulk-loaded rows never enter the redo log, so checkpoint each
		// partition now: crash recovery replays checkpoint + log, and
		// without this the loaded state would be unrecoverable. The
		// copies keep none of the image's arrays, so the broker takes it.
		if mp, ok := e.siteOf(m.Master().Site).Partition(pid); ok {
			e.Broker.SaveCheckpoint(pid, redolog.Checkpoint{Image: img, Version: mp.Version(), Offset: e.Broker.EndOffset(pid)})
		}
		m.Tracker.Record(forecast.Update, 0) // touch tracker
	}
	return nil
}

// Stats exposes the engine's experiment counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// MetricsSnapshot assembles the full observability snapshot: the shared
// registry (net, redolog, per-site maintenance) plus per-class operation
// counters, OLTP/OLAP/adaptation latency quantiles, per-site tier usage
// and replication/advisor totals. This is what cmd/proteusd serves over
// HTTP and what the proteus-cli stats command prints.
func (e *Engine) MetricsSnapshot() obs.Snapshot {
	snap := e.Obs.Snapshot()
	for c := OpClass(0); c < NumOpClasses; c++ {
		st := e.stats.Class(c)
		if st.Count == 0 {
			continue
		}
		snap.Counters["engine."+c.String()+".count"] = st.Count
		snap.Counters["engine."+c.String()+".time_ns"] = int64(st.TotalTime)
	}
	snap.Counters["engine.aborts"] = e.stats.Aborts()
	oltp, olap, adapt := e.stats.Quantiles()
	snap.Latencies["engine.oltp"] = oltp
	snap.Latencies["engine.olap"] = olap
	snap.Latencies["engine.adaptation"] = adapt
	var applied int64
	for _, s := range e.Sites {
		prefix := "site" + strconv.Itoa(int(s.ID)) + "."
		snap.Gauges[prefix+"mem_bytes"] = s.MemUsage()
		snap.Gauges[prefix+"disk_bytes"] = s.DiskUsage()
		up := int64(1)
		if s.Down() {
			up = 0
		}
		snap.Gauges[prefix+"up"] = up
		applied += s.Repl.Applied()
	}
	snap.Counters["repl.applied"] = applied
	bs := storage.ReadBatchStats()
	snap.Counters["exec.batches.count"] = bs.Batches
	snap.Counters["exec.batches.rows_scanned"] = bs.RowsScanned
	snap.Counters["exec.batches.rows_selected"] = bs.RowsSelected
	snap.Counters["exec.batches.pool_gets"] = bs.PoolGets
	snap.Counters["exec.batches.pool_hits"] = bs.PoolHits
	snap.Counters["exec.batches.pool_puts"] = bs.PoolPuts
	if bs.RowsScanned > 0 {
		snap.Gauges["exec.batches.selectivity_pct"] = 100 * bs.RowsSelected / bs.RowsScanned
	}
	if bs.PoolGets > 0 {
		snap.Gauges["exec.batches.pool_hit_pct"] = 100 * bs.PoolHits / bs.PoolGets
	}
	ds := colstore.ReadDeltaScanStats()
	snap.Counters["exec.batches.delta_units"] = ds.Units
	snap.Counters["exec.batches.delta_rows_masked"] = ds.RowsMasked
	snap.Counters["exec.batches.delta_rows_emitted"] = ds.DeltaRows
	es := storage.ReadEncodedStats()
	snap.Counters["exec.encoded.vecs"] = es.Vecs
	snap.Counters["exec.encoded.code_filters"] = es.CodeFilters
	snap.Counters["exec.encoded.agg_folds"] = es.AggFolds
	ce := colstore.ReadEncodingStats()
	snap.Counters["colstore.encoding.cols.plain"] = ce.PlainCols
	snap.Counters["colstore.encoding.cols.rle"] = ce.RLECols
	snap.Counters["colstore.encoding.cols.dict"] = ce.DictCols
	snap.Counters["colstore.encoding.cols.for"] = ce.FoRCols
	snap.Counters["colstore.encoding.bytes.stored"] = ce.StoredBytes
	snap.Counters["colstore.encoding.bytes.plain_equiv"] = ce.PlainBytes
	if ce.PlainBytes > 0 {
		snap.Gauges["colstore.encoding.stored_pct"] = 100 * ce.StoredBytes / ce.PlainBytes
	}
	js := exec.ReadJoinStats()
	snap.Counters["exec.join.count"] = js.Joins
	snap.Counters["exec.join.build_rows"] = js.BuildRows
	snap.Counters["exec.join.probe_rows"] = js.ProbeRows
	snap.Counters["exec.join.out_rows"] = js.OutRows
	snap.Counters["exec.join.build_ns"] = js.BuildNanos
	snap.Counters["exec.join.probe_ns"] = js.ProbeNanos
	snap.Counters["exec.join.bloom_tested"] = js.BloomTested
	snap.Counters["exec.join.bloom_passed"] = js.BloomPassed
	snap.Counters["exec.join.rf_bounds_preds"] = js.BoundsPreds
	snap.Counters["exec.join.spill_partitions"] = js.SpillPartitions
	snap.Counters["exec.join.spill_bytes"] = js.SpillBytes
	snap.Counters["exec.join.spill_recursions"] = js.SpillRecursions
	snap.Counters["exec.join.pipelined"] = js.Pipelined
	snap.Counters["exec.join.broadcast_bytes"] = js.BroadcastBytes
	snap.Counters["exec.join.chain_steps"] = js.ChainSteps
	if js.BloomTested > 0 {
		snap.Gauges["exec.join.bloom_pass_pct"] = 100 * js.BloomPassed / js.BloomTested
	}
	gs := exec.ReadGroupByStats()
	snap.Counters["exec.groupby.batches"] = gs.Batches
	snap.Counters["exec.groupby.rows_typed"] = gs.IntRows
	snap.Counters["exec.groupby.rows_coded"] = gs.CodeRows
	snap.Counters["exec.groupby.rows_boxed"] = gs.BoxRows
	snap.Counters["asa.decisions"] = e.Trace.Total()
	if e.Advisor != nil {
		snap.Counters["asa.changes"] = e.Advisor.Changes()
		snap.Counters["asa.changes_reverted"] = e.Advisor.Reverted()
	}
	return snap
}

// TableMaxRow reports the configured row bound of a table.
func (e *Engine) TableMaxRow(t schema.TableID) schema.RowID { return e.tableMax[t] }
