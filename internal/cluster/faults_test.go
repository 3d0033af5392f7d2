package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"proteus/internal/asa"
	"proteus/internal/faults"
	"proteus/internal/metadata"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// newFaultEngine builds an engine with short operation deadlines so
// fault-path tests fail fast, plus a loaded table.
func newFaultEngine(t *testing.T, sites, parts int, rows int64, tune func(*Config)) (*Engine, *schema.Table) {
	t.Helper()
	cfg := fastConfig(ModeProteus, sites)
	cfg.OpDeadline = 250 * time.Millisecond
	cfg.RetryBase = 100 * time.Microsecond
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	tbl, err := e.CreateTable(TableSpec{
		Name: "items", Cols: testCols, MaxRows: 100000, Partitions: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]schema.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		data = append(data, schema.Row{ID: schema.RowID(i), Vals: []types.Value{
			types.NewInt64(i), types.NewInt64(i % 10), types.NewFloat64(float64(i)), types.NewString(fmt.Sprintf("row-%d", i)),
		}})
	}
	if err := e.LoadRows(context.Background(), tbl.ID, data); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// noAdapt freezes the advisor so tests control the replica topology.
func noAdapt(cfg *Config) {
	cfg.Adapt.Flags = asa.Flags{}
	cfg.Adapt.Interval = -1
}

// masterVersion reads a partition's version at its master site.
func masterVersion(t *testing.T, e *Engine, m *metadata.PartitionMeta) uint64 {
	t.Helper()
	p, ok := e.siteOf(m.Master().Site).Partition(m.ID)
	if !ok {
		t.Fatalf("partition %d: no master copy at site %d", m.ID, m.Master().Site)
	}
	return p.Version()
}

// waitReplicaVersion waits until the copy at site reaches at least v.
func waitReplicaVersion(t *testing.T, e *Engine, pid partition.ID, siteID simnet.SiteID, v uint64, timeout time.Duration) {
	t.Helper()
	end := time.Now().Add(timeout)
	for {
		if p, ok := e.siteOf(siteID).Partition(pid); ok && p.Version() >= v {
			return
		}
		if time.Now().After(end) {
			p, ok := e.siteOf(siteID).Partition(pid)
			got := uint64(0)
			if ok {
				got = p.Version()
			}
			t.Fatalf("site %d partition %d stuck at version %d, want >= %d", siteID, pid, got, v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCrashDuringWriteRecovery(t *testing.T) {
	e, tbl := newFaultEngine(t, 2, 4, 200, nil)

	const writers = 4
	rowsPer := int64(200 / writers)
	type ack struct {
		row int64
		val float64
	}
	acked := make([]map[int64]float64, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		acked[w] = make(map[int64]float64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.NewSession()
			v := float64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v++
				row := int64(w)*rowsPer + int64(v)%rowsPer
				_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
					updateOp(tbl, row, 2, types.NewFloat64(v)),
				}})
				if err == nil {
					acked[w][row] = v
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	if err := e.CrashSite(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := e.RecoverSite(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every acknowledged write must be readable after recovery.
	sess := e.NewSession()
	checked := 0
	for w := 0; w < writers; w++ {
		for row, want := range acked[w] {
			res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, row, 2)}})
			if err != nil {
				t.Fatalf("read row %d: %v", row, err)
			}
			if got := res.Tuples[0][0].Float(); got != want {
				t.Errorf("row %d = %v, want acked %v (lost committed write)", row, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no writes were acknowledged; test exercised nothing")
	}
}

func TestFailoverPromotesFreshestReplica(t *testing.T) {
	e, tbl := newFaultEngine(t, 3, 1, 60, noAdapt)
	metas := e.Dir.TablePartitions(tbl.ID)
	if len(metas) != 1 {
		t.Fatalf("want 1 partition, got %d", len(metas))
	}
	m := metas[0]
	oldMaster := m.Master().Site
	var reps []simnet.SiteID
	for s := simnet.SiteID(0); int(s) < 3; s++ {
		if s == oldMaster {
			continue
		}
		if err := e.AddReplicaOp(m.ID, s, storage.DefaultColumnLayout()); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, s)
	}
	fresh, stale := reps[0], reps[1]

	sess := e.NewSession()
	write := func(row int64, v float64) {
		t.Helper()
		if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
			updateOp(tbl, row, 2, types.NewFloat64(v)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 20; i++ {
		write(i, -1)
	}
	waitReplicaVersion(t, e, m.ID, stale, masterVersion(t, e, m), time.Second)

	// Cut the stale replica off from the log broker; it stops applying.
	e.Faults.SetLink(simnet.ASASite, stale, faults.LinkFault{Drop: 1})
	for i := int64(20); i < 40; i++ {
		write(i, -2)
	}
	want := masterVersion(t, e, m)
	waitReplicaVersion(t, e, m.ID, fresh, want, time.Second)

	if err := e.CrashSite(oldMaster); err != nil {
		t.Fatal(err)
	}
	if got := m.Master().Site; got != fresh {
		t.Fatalf("failover promoted site %d, want freshest replica %d", got, fresh)
	}
	p, ok := e.siteOf(fresh).Partition(m.ID)
	if !ok || p.Version() < want {
		t.Fatalf("promoted master at version %v, want >= %d", p, want)
	}
	// Committed writes survive the failover.
	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, 30, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuples[0][0].Float(); got != -2 {
		t.Errorf("row 30 after failover = %v, want -2", got)
	}

	// The old master recovers and rejoins as a replica of the new master.
	e.Faults.ClearLinks()
	if err := e.RecoverSite(oldMaster); err != nil {
		t.Fatal(err)
	}
	if got := m.Master().Site; got != fresh {
		t.Fatalf("recovery moved mastership to %d, want it to stay at %d", got, fresh)
	}
	if !m.HasCopyAt(oldMaster) {
		t.Fatal("old master did not rejoin as a replica")
	}
	waitReplicaVersion(t, e, m.ID, oldMaster, masterVersion(t, e, m), time.Second)
}

func TestPartitionHealsAndConverges(t *testing.T) {
	e, tbl := newFaultEngine(t, 2, 2, 80, noAdapt)
	// Pick a partition mastered at one site and replicate it on the other.
	var m *metadata.PartitionMeta
	for _, c := range e.Dir.TablePartitions(tbl.ID) {
		m = c
		break
	}
	masterSite := m.Master().Site
	replicaSite := simnet.SiteID(1 - int(masterSite))
	if err := e.AddReplicaOp(m.ID, replicaSite, storage.DefaultColumnLayout()); err != nil {
		t.Fatal(err)
	}

	// Partition the replica's site away from the broker: replication stalls
	// but the master keeps committing.
	e.Faults.Partition(
		[]simnet.SiteID{masterSite, simnet.ASASite},
		[]simnet.SiteID{replicaSite},
	)
	sess := e.NewSession()
	row := int64(m.Bounds.RowStart)
	for i := 0; i < 25; i++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
			updateOp(tbl, row, 2, types.NewFloat64(float64(100+i))),
		}}); err != nil {
			t.Fatalf("write at master during partition: %v", err)
		}
	}
	want := masterVersion(t, e, m)
	rp, ok := e.siteOf(replicaSite).Partition(m.ID)
	if !ok {
		t.Fatal("replica copy missing")
	}
	if rp.Version() >= want {
		t.Fatalf("replica version %d reached master %d despite the partition", rp.Version(), want)
	}

	if !e.Faults.Partitioned() {
		t.Fatal("registry does not report the partition")
	}
	e.HealNet()
	// Background replication converges the replica after the heal.
	waitReplicaVersion(t, e, m.ID, replicaSite, want, 2*time.Second)

	res, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{readOp(tbl, row, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuples[0][0].Float(); got != 124 {
		t.Errorf("row %d after heal = %v, want 124", row, got)
	}
}

func TestUnavailablePartitionTimesOutTyped(t *testing.T) {
	e, tbl := newFaultEngine(t, 2, 2, 40, noAdapt)
	// Find a partition with no replicas and crash its master: requests
	// against it must observe the deadline and surface the typed timeout.
	m := e.Dir.TablePartitions(tbl.ID)[0]
	downSite := m.Master().Site
	if err := e.CrashSite(downSite); err != nil {
		t.Fatal(err)
	}
	sess := e.NewSession()
	start := time.Now()
	_, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, int64(m.Bounds.RowStart), 2, types.NewFloat64(1)),
	}})
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("write to unavailable partition: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("operation hung for %v instead of observing its deadline", d)
	}
	if err := e.RecoverSite(downSite); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
		updateOp(tbl, int64(m.Bounds.RowStart), 2, types.NewFloat64(1)),
	}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestAddReplicaWhileMasterDown installs a replica of a partition whose
// master's site is down and which had no replica to fail over to. The
// copy is built from the log broker alone — its checkpoint plus the redo
// tail the crashed master committed — so the install succeeds, and once
// the master recovers and commits more, the two copies read alike.
func TestAddReplicaWhileMasterDown(t *testing.T) {
	e, tbl := newFaultEngine(t, 2, 1, 60, noAdapt)
	m := e.Dir.TablePartitions(tbl.ID)[0]
	master := m.Master().Site
	other := 1 - master
	sess := e.NewSession()
	write := func(lo, hi int64) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := e.ExecuteTxn(context.Background(), sess, &query.Txn{Ops: []query.Op{
				updateOp(tbl, i, 2, types.NewFloat64(float64(-i))),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 20)
	if err := e.CrashSite(master); err != nil {
		t.Fatal(err)
	}
	if got := m.Master().Site; got != master || len(m.Replicas()) != 0 {
		t.Fatalf("after the crash: master at site %d with replicas %v, want site %d alone", got, m.Replicas(), master)
	}
	if err := e.AddReplicaOp(m.ID, other, storage.DefaultColumnLayout()); err != nil {
		t.Fatalf("install with the master's site down: %v", err)
	}
	if err := e.RecoverSite(master); err != nil {
		t.Fatal(err)
	}
	if got := m.Master().Site; got != master || !m.HasCopyAt(other) {
		t.Fatalf("after recovery: master at site %d, replica at site %d: %v", got, other, m.HasCopyAt(other))
	}
	write(20, 40)
	waitReplicaVersion(t, e, m.ID, other, masterVersion(t, e, m), time.Second)
	mp, _ := e.siteOf(master).Partition(m.ID)
	rp, _ := e.siteOf(other).Partition(m.ID)
	want, got := mp.Image(storage.Latest).Rows(), rp.Image(storage.Latest).Rows()
	if len(got) != 60 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica reads %d rows %v,\nmaster reads %d rows %v", len(got), got, len(want), want)
	}
}
