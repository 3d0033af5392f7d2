package cluster

import (
	"fmt"

	"proteus/internal/faults"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
)

// The engine's layout-change operators (§4.4). Every operation that
// changes an existing copy quiesces writers with the partition's exclusive
// lock, performs the physical change, updates the metadata directory, and
// bumps the plan epoch so cached plans re-bind. A replica's install
// changes no existing copy and holds the lock shared only to serialise
// with those operations (AddReplicaOp).

// classOfLayoutChange maps a layout delta to its accounting class.
func classOfLayoutChange(cur, next storage.Layout) OpClass {
	switch {
	case cur.Format != next.Format:
		return ClassFormatChange
	case cur.Tier != next.Tier:
		return ClassTierChange
	default:
		return ClassSortCompChange
	}
}

// ChangeCopyLayout converts the copy of pid at a site to a new layout
// (format, tier, sort order or compression change).
func (e *Engine) ChangeCopyLayout(pid partition.ID, siteID simnet.SiteID, next storage.Layout) error {
	start := e.clk.Now()
	m, ok := e.Dir.Get(pid)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", pid)
	}
	s := e.siteOf(siteID)
	p, err := s.MustPartition(pid)
	if err != nil {
		return err
	}
	cur := p.Layout()
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, 256)

	ls := e.Locks.AcquireAll(nil, []partition.ID{pid})
	// Re-resolve the copy under the lock: a concurrent crash or recovery
	// may have replaced the object we looked up above, and converting a
	// stale copy would strand the change on a dead object.
	if p, err = s.MustPartition(pid); err != nil {
		ls.ReleaseAll()
		return err
	}
	// Flush queued commits so the rebuild-at-Version() conversion below
	// cannot strand staged rows whose install is still in a commit queue.
	e.gc.barrier(m.Master().Site)
	err = p.ChangeLayout(next, s.Factory, p.Version())
	ls.ReleaseAll()
	if err != nil {
		return err
	}
	m.SetReplicaLayout(siteID, next)
	e.Epoch.Bump()
	e.stats.Record(classOfLayoutChange(cur, next), e.clk.Since(start))
	return nil
}

// dropAllReplicas removes every non-master copy of a partition (used when
// repartitioning; adaptation re-adds replicas if beneficial).
func (e *Engine) dropAllReplicas(m *metadata.PartitionMeta) {
	for _, r := range m.Replicas() {
		s := e.siteOf(r.Site)
		s.Repl.Unsubscribe(m.ID)
		s.RemovePartition(m.ID)
		m.RemoveReplica(r.Site)
	}
}

// replaceInDirectory swaps old partitions for new ones mastered at the
// given site. The new copies stand at the site, with their topics and
// checkpoints, before one directory step swaps the entries, and the old
// copies go after it: an operation planned meanwhile binds either the old
// partitions (and re-plans once they are gone) or the new ones, never none.
func (e *Engine) replaceInDirectory(siteID simnet.SiteID, old []*metadata.PartitionMeta, parts []*partition.Partition) {
	metas := make([]*metadata.PartitionMeta, len(parts))
	for i, p := range parts {
		e.siteOf(siteID).AddPartition(p, true)
		e.Broker.CreateTopic(p.ID, p.Kinds()...)
		// The old partitions' topics are going and the new partitions'
		// rows predate their (empty) topics, so checkpoint immediately:
		// without this a crash before the next checkpoint cycle would
		// lose the repartitioned data.
		e.Broker.SaveCheckpoint(p.ID, redolog.CheckpointOf(p, e.Broker.EndOffset(p.ID)))
		metas[i] = e.Dir.NewMeta(p.ID, p.Bounds, metadata.Replica{Site: siteID, Layout: p.Layout()}, p.ZoneMap())
	}
	oldIDs := make([]partition.ID, len(old))
	for i, m := range old {
		oldIDs[i] = m.ID
	}
	e.Dir.Replace(oldIDs, metas...)
	for _, m := range old {
		e.siteOf(m.Master().Site).RemovePartition(m.ID)
		e.Broker.DeleteTopic(m.ID)
		e.Deps.Drop(m.ID)
	}
	e.Epoch.Bump()
}

// SplitH splits pid horizontally at row `at` (§4.4).
func (e *Engine) SplitH(pid partition.ID, at schema.RowID) error {
	start := e.clk.Now()
	m, ok := e.Dir.Get(pid)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", pid)
	}
	siteID := m.Master().Site
	s := e.siteOf(siteID)
	p, err := s.MustPartition(pid)
	if err != nil {
		return err
	}
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, 256)
	ls := e.Locks.AcquireAll(nil, []partition.ID{pid})
	defer ls.ReleaseAll()
	// A failover or master change while we waited for the lock moves the
	// authoritative copy; splitting the stale one would register the new
	// partitions from outdated data.
	if m.Master().Site != siteID {
		return ErrStalePlan
	}
	if p, err = s.MustPartition(pid); err != nil {
		return err
	}
	e.gc.barrier(siteID) // queued commits must land before the old topic dies

	e.dropAllReplicas(m)
	ids := [2]partition.ID{e.Dir.AllocID(), e.Dir.AllocID()}
	lo, hi, err := partition.SplitHorizontal(p, at, ids, p.Layout(), s.Factory, p.Version())
	if err != nil {
		return err
	}
	e.replaceInDirectory(siteID, []*metadata.PartitionMeta{m}, []*partition.Partition{lo, hi})
	e.stats.Record(ClassPartitionChange, e.clk.Since(start))
	return nil
}

// SplitV splits pid vertically at global column `at` (row splitting, §2.2).
// The write-hot side keeps a row layout; the other side keeps the current
// layout.
func (e *Engine) SplitV(pid partition.ID, at schema.ColID, leftLayout, rightLayout storage.Layout) error {
	start := e.clk.Now()
	m, ok := e.Dir.Get(pid)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", pid)
	}
	siteID := m.Master().Site
	s := e.siteOf(siteID)
	p, err := s.MustPartition(pid)
	if err != nil {
		return err
	}
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, 256)
	ls := e.Locks.AcquireAll(nil, []partition.ID{pid})
	defer ls.ReleaseAll()
	// See SplitH: revalidate mastership and the copy under the lock.
	if m.Master().Site != siteID {
		return ErrStalePlan
	}
	if p, err = s.MustPartition(pid); err != nil {
		return err
	}
	e.gc.barrier(siteID) // queued commits must land before the old topic dies

	e.dropAllReplicas(m)
	ids := [2]partition.ID{e.Dir.AllocID(), e.Dir.AllocID()}
	l, r, err := partition.SplitVertical(p, at, ids, leftLayout, rightLayout, s.Factory, p.Version())
	if err != nil {
		return err
	}
	e.replaceInDirectory(siteID, []*metadata.PartitionMeta{m}, []*partition.Partition{l, r})
	e.stats.Record(ClassPartitionChange, e.clk.Since(start))
	return nil
}

// MergeH merges two row-adjacent partitions mastered at the same site.
func (e *Engine) MergeH(a, b partition.ID) error {
	start := e.clk.Now()
	ma, ok := e.Dir.Get(a)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", a)
	}
	mb, ok := e.Dir.Get(b)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", b)
	}
	if ma.Master().Site != mb.Master().Site {
		return fmt.Errorf("cluster: merge requires co-sited masters (%d vs %d)", ma.Master().Site, mb.Master().Site)
	}
	siteID := ma.Master().Site
	s := e.siteOf(siteID)
	pa, err := s.MustPartition(a)
	if err != nil {
		return err
	}
	pb, err := s.MustPartition(b)
	if err != nil {
		return err
	}
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, 256)
	ls := e.Locks.AcquireAll(nil, []partition.ID{a, b})
	defer ls.ReleaseAll()
	// See SplitH: revalidate mastership and the copies under the lock.
	if ma.Master().Site != siteID || mb.Master().Site != siteID {
		return ErrStalePlan
	}
	if pa, err = s.MustPartition(a); err != nil {
		return err
	}
	if pb, err = s.MustPartition(b); err != nil {
		return err
	}
	e.gc.barrier(siteID) // queued commits must land before the old topics die

	e.dropAllReplicas(ma)
	e.dropAllReplicas(mb)
	merged, err := partition.MergeHorizontal(pa, pb, e.Dir.AllocID(), pa.Layout(), s.Factory, storage.Latest)
	if err != nil {
		return err
	}
	e.replaceInDirectory(siteID, []*metadata.PartitionMeta{ma, mb}, []*partition.Partition{merged})
	e.stats.Record(ClassPartitionChange, e.clk.Since(start))
	return nil
}

// AddReplicaOp installs a replica of pid at a site from the log broker
// (addReplica): the master is neither read nor waited for, so it may be
// down, and only the broker must reach the new copy's site. The shared
// partition lock serialises the install against the operators that take
// the exclusive one to rewrite the partition's copies or replica list —
// SplitH, SplitV, MergeH, ChangeMasterOp and failover — so a replica is
// neither added to a partition split or merged away nor built at a site a
// master change is building its own copy at. The copy's transfer is
// charged once the lock is released.
func (e *Engine) AddReplicaOp(pid partition.ID, siteID simnet.SiteID, l storage.Layout) error {
	start := e.clk.Now()
	if err := e.addReplica(pid, siteID, l); err != nil {
		return err
	}
	e.Epoch.Bump()
	e.stats.Record(ClassReplicationChange, e.clk.Since(start))
	return nil
}

// addReplica installs a replica of pid at a live site (buildCopy) and
// charges what it carried on the broker's link to the site once the lock
// is released, so writers do not wait on the modelled transfer: the
// install behind AddReplicaOp, ChangeMasterOp's new target, and the
// copies a mode or a ReplicateAll table places. The broker must reach the
// site: its link's typed error is returned otherwise.
func (e *Engine) addReplica(pid partition.ID, siteID simnet.SiteID, l storage.Layout) error {
	if err := e.Net.Reachable(simnet.ASASite, siteID); err != nil {
		return err
	}
	ls := e.Locks.AcquireAll([]partition.ID{pid}, nil)
	m, ok := e.Dir.Get(pid)
	var bytes int
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("cluster: unknown partition %d", pid)
	case m.HasCopyAt(siteID):
		err = fmt.Errorf("cluster: partition %d already has a copy at site %d", pid, siteID)
	default:
		bytes, err = e.buildCopy(m, siteID, l, false)
	}
	ls.ReleaseAll()
	if err != nil {
		return err
	}
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, bytes)
	return nil
}

// RemoveReplicaOp drops the replica of pid at a site (§4.4).
func (e *Engine) RemoveReplicaOp(pid partition.ID, siteID simnet.SiteID) error {
	start := e.clk.Now()
	m, ok := e.Dir.Get(pid)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", pid)
	}
	if m.Master().Site == siteID {
		return fmt.Errorf("cluster: cannot remove the master copy of %d", pid)
	}
	if !m.RemoveReplica(siteID) {
		return fmt.Errorf("cluster: no replica of %d at site %d", pid, siteID)
	}
	s := e.siteOf(siteID)
	s.Repl.Unsubscribe(pid)
	s.RemovePartition(pid)
	e.Net.ChargeKind(simnet.KindLayout, simnet.ASASite, siteID, 128)
	e.Epoch.Bump()
	e.stats.Record(ClassReplicationChange, e.clk.Since(start))
	return nil
}

// ChangeMasterOp moves pid's mastership to a new site (§4.4): a target
// with no copy first gets a replica installed from the log broker, as
// AddReplicaOp installs one, the target catches up to the old master's
// version, new update transactions route to it, and the old master
// becomes a replica. Unlike the install, the handover needs the old
// master up, the exclusive partition lock and a flush of its queued
// commits, so the version it hands over covers every committed write.
func (e *Engine) ChangeMasterOp(pid partition.ID, newSite simnet.SiteID) error {
	start := e.clk.Now()
	m, ok := e.Dir.Get(pid)
	if !ok {
		return fmt.Errorf("cluster: unknown partition %d", pid)
	}
	oldMaster := m.Master()
	if oldMaster.Site == newSite {
		return nil
	}
	if e.siteOf(newSite).Down() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, newSite)
	}
	if e.siteOf(oldMaster.Site).Down() {
		return fmt.Errorf("%w: site %d", faults.ErrSiteDown, oldMaster.Site)
	}
	// A target with no copy gets one as a replica first, outside the
	// exclusive window below, so writers wait only for the handover.
	if !m.HasCopyAt(newSite) {
		if err := e.addReplica(pid, newSite, oldMaster.Layout); err != nil {
			return err
		}
	}
	// Block new updates while mastership moves, and flush the old
	// master's queued commits so the version the target catches up to
	// covers every committed write.
	ls := e.Locks.AcquireAll(nil, []partition.ID{pid})
	defer ls.ReleaseAll()
	// A failover while we waited for the lock may have moved mastership
	// already, or dropped the target's copy; draining and catching up
	// against the copies we resolved before the lock would hand mastership
	// to a stale version.
	if m.Master().Site != oldMaster.Site || !m.HasCopyAt(newSite) {
		return ErrStalePlan
	}
	e.gc.barrier(oldMaster.Site)

	dst := e.siteOf(newSite)
	src := e.siteOf(oldMaster.Site)
	srcPart, err := src.MustPartition(pid)
	if err != nil {
		return err
	}
	// The new master must apply all updates from the previous master.
	if dst.Repl.Subscribed(pid) {
		if _, err := dst.Repl.CatchUp(pid, srcPart.Version()); err != nil {
			return err
		}
		dst.Repl.Unsubscribe(pid)
	}
	dstPart, err := dst.MustPartition(pid)
	if err != nil {
		return err
	}
	dstPart.SetVersion(srcPart.Version())
	dst.SetMaster(pid, true)
	src.SetMaster(pid, false)
	// Old master becomes a replica from the current log position.
	src.Repl.Subscribe(pid, srcPart, e.Broker.EndOffset(pid))

	// The target leaves the replica list, and the old master joins it.
	m.RemoveReplica(newSite)
	m.SetMaster(metadata.Replica{Site: newSite, Layout: dstPart.Layout()})
	m.AddReplica(metadata.Replica{Site: oldMaster.Site, Layout: oldMaster.Layout})

	e.Net.ChargeKind(simnet.KindLayout, oldMaster.Site, newSite, 512)
	e.Net.ChargeKind(simnet.KindLayout, newSite, oldMaster.Site, 128)
	e.Epoch.Bump()
	e.stats.Record(ClassMasterChange, e.clk.Since(start))
	return nil
}
