package replication

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"proteus/internal/disksim"
	"proteus/internal/faults"
	"proteus/internal/partition"
	"proteus/internal/redolog"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
)

var kinds = []types.Kind{types.KindInt64, types.KindString}

func newPart(id partition.ID) *partition.Partition {
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	b := partition.Bounds{RowStart: 0, RowEnd: 1000, ColStart: 0, ColEnd: 2}
	return partition.New(id, b, kinds, storage.DefaultRowLayout(), f)
}

func insertRec(pid partition.ID, ver uint64, row schema.RowID) redolog.Record {
	return redolog.Record{Partition: pid, Version: ver, Entries: []redolog.Entry{{
		Op: redolog.OpInsert, Row: row,
		Vals: []types.Value{types.NewInt64(int64(row)), types.NewString("v")},
	}}}
}

func TestPollOnceApplies(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(7)
	r.Subscribe(7, p, 0)

	broker.Append(insertRec(7, 1, 1))
	broker.Append(insertRec(7, 2, 2))
	n, err := r.PollOnce()
	if err != nil || n != 2 {
		t.Fatalf("applied %d, %v", n, err)
	}
	if p.Version() != 2 {
		t.Errorf("version = %d", p.Version())
	}
	if _, ok := p.Get(2, []schema.ColID{0}, storage.Latest); !ok {
		t.Error("replicated row missing")
	}
	if r.Applied() != 2 {
		t.Errorf("Applied = %d", r.Applied())
	}
}

func TestCatchUpWaitsForVersion(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(7)
	r.Subscribe(7, p, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		broker.Append(insertRec(7, 1, 1))
		broker.Append(insertRec(7, 2, 2))
	}()
	d, err := r.CatchUp(7, 2)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if p.Version() < 2 {
		t.Errorf("version = %d after catch-up", p.Version())
	}
	if d <= 0 {
		t.Error("wait duration not recorded")
	}
}

func TestCatchUpUnknownPartition(t *testing.T) {
	r := New(redolog.NewBroker(), nil, 1, simnet.ASASite)
	if _, err := r.CatchUp(99, 1); err == nil {
		t.Error("expected error")
	}
}

func TestLag(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(3)
	r.Subscribe(3, p, 0)
	broker.Append(insertRec(3, 1, 1))
	broker.Append(insertRec(3, 2, 2))
	if lag := r.Lag(3); lag != 2 {
		t.Errorf("lag = %d", lag)
	}
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if lag := r.Lag(3); lag != 0 {
		t.Errorf("lag after poll = %d", lag)
	}
}

func TestUnsubscribeStopsApplying(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(3)
	r.Subscribe(3, p, 0)
	if !r.Subscribed(3) {
		t.Fatal("not subscribed")
	}
	r.Unsubscribe(3)
	broker.Append(insertRec(3, 1, 1))
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if p.Version() != 0 {
		t.Error("unsubscribed partition advanced")
	}
}

func TestSubscribeFromOffsetSkipsHistory(t *testing.T) {
	broker := redolog.NewBroker()
	broker.Append(insertRec(3, 1, 1)) // history (already in snapshot)
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(3)
	// Install "snapshot" containing row 1, then subscribe past it.
	if err := p.Load([]schema.Row{{ID: 1, Vals: []types.Value{types.NewInt64(1), types.NewString("v")}}}, 1); err != nil {
		t.Fatal(err)
	}
	r.Subscribe(3, p, broker.EndOffset(3))
	broker.Append(insertRec(3, 2, 2))
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if n := len(p.ExtractAll(storage.Latest)); n != 2 {
		t.Errorf("rows = %d", n)
	}
}

func TestBackgroundRun(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(3)
	r.Subscribe(3, p, 0)
	stop := make(chan struct{})
	go r.Run(time.Millisecond, stop)
	broker.Append(insertRec(3, 1, 1))
	deadline := time.After(time.Second)
	for p.Version() < 1 {
		select {
		case <-deadline:
			t.Fatal("background replication never applied")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
}

// newFetchFixture subscribes site 2 to partitions 1..parts over a
// zero-latency network and appends one record to each; it returns the
// records' summed wire size.
func newFetchFixture(t *testing.T, parts int) (*redolog.Broker, *simnet.Network, *Replicator, []*partition.Partition, int) {
	t.Helper()
	broker := redolog.NewBroker()
	nw := simnet.New(simnet.Config{BaseLatency: 0})
	r := New(broker, nw, 2, simnet.ASASite)
	ps := make([]*partition.Partition, parts)
	bytes := 0
	for i := range ps {
		pid := partition.ID(i + 1)
		ps[i] = newPart(pid)
		r.Subscribe(pid, ps[i], 0)
		rec := insertRec(pid, 1, 1)
		broker.Append(rec)
		bytes += rec.Bytes()
	}
	return broker, nw, r, ps, bytes
}

// TestNetworkCharged holds a poll to one message from the broker however
// many subscriptions have new records, carrying their summed size, and to
// none when no record is new.
func TestNetworkCharged(t *testing.T) {
	const parts = 5
	_, nw, r, ps, bytes := newFetchFixture(t, parts)
	n, err := r.PollOnce()
	if err != nil || n != parts {
		t.Fatalf("applied %d, %v; want %d", n, err, parts)
	}
	if st := nw.Stats(simnet.ASASite, 2); st.Messages != 1 || st.Bytes != int64(bytes) {
		t.Errorf("link stats = %+v, want 1 message of %d bytes", st, bytes)
	}
	for i, p := range ps {
		if p.Version() != 1 {
			t.Errorf("partition %d version = %d", i+1, p.Version())
		}
	}
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if st := nw.Stats(simnet.ASASite, 2); st.Messages != 1 || st.Bytes != int64(bytes) {
		t.Errorf("a poll with nothing new sent a message: link stats = %+v", st)
	}
}

// TestDroppedFetchRefetches drops the poll's one message: no subscription
// advances, and once the link heals the next poll applies every record
// exactly once.
func TestDroppedFetchRefetches(t *testing.T) {
	const parts = 4
	broker, nw, r, ps, bytes := newFetchFixture(t, parts)
	reg := faults.New(1)
	nw.SetFaults(reg)
	reg.SetLink(simnet.ASASite, 2, faults.LinkFault{Drop: 1})
	if _, err := r.PollOnce(); !errors.Is(err, faults.ErrDropped) {
		t.Fatalf("PollOnce over a dropping link: err = %v, want ErrDropped", err)
	}
	for pid, off := range r.Offsets() {
		if off != 0 {
			t.Errorf("partition %d offset = %d after a dropped fetch, want 0", pid, off)
		}
		if lag := r.Lag(pid); lag != 1 {
			t.Errorf("partition %d lag = %d after a dropped fetch, want 1", pid, lag)
		}
	}
	reg.SetLink(simnet.ASASite, 2, faults.LinkFault{})
	for i := range ps {
		broker.Append(insertRec(partition.ID(i+1), 2, 2))
	}
	n, err := r.PollOnce()
	if err != nil || n != 2*parts {
		t.Fatalf("applied %d, %v after the link healed; want %d", n, err, 2*parts)
	}
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if r.Applied() != 2*parts {
		t.Errorf("Applied = %d, want %d: a record was lost or applied twice", r.Applied(), 2*parts)
	}
	for i, p := range ps {
		if p.Version() != 2 || len(p.ExtractAll(storage.Latest)) != 2 {
			t.Errorf("partition %d at version %d with %d rows, want 2 and 2", i+1, p.Version(), len(p.ExtractAll(storage.Latest)))
		}
	}
	if st := nw.Stats(simnet.ASASite, 2); st.Messages != 1 || st.Bytes <= int64(bytes) {
		t.Errorf("link stats = %+v, want the one delivered message", st)
	}
}

// unsubscribeOnSend unsubscribes one partition while the fetch's message
// is in flight.
type unsubscribeOnSend struct {
	r   *Replicator
	pid partition.ID
}

func (u *unsubscribeOnSend) Check(from, to simnet.SiteID) error { return nil }

func (u *unsubscribeOnSend) Intercept(from, to simnet.SiteID, bytes int) (time.Duration, error) {
	u.r.Unsubscribe(u.pid)
	return 0, nil
}

// TestUnsubscribeDuringFetch removes one subscription while the poll's
// message is in flight: that partition is skipped, every other one applies.
func TestUnsubscribeDuringFetch(t *testing.T) {
	const parts, victim = 4, 3
	_, nw, r, ps, _ := newFetchFixture(t, parts)
	nw.SetFaults(&unsubscribeOnSend{r: r, pid: victim})
	n, err := r.PollOnce()
	if err != nil || n != parts-1 {
		t.Fatalf("applied %d, %v; want %d", n, err, parts-1)
	}
	for i, p := range ps {
		want := uint64(1)
		if partition.ID(i+1) == victim {
			want = 0
		}
		if p.Version() != want {
			t.Errorf("partition %d version = %d, want %d", i+1, p.Version(), want)
		}
	}
	if r.Subscribed(victim) {
		t.Error("the victim is still subscribed")
	}
}

// TestPartitionedBrokerQueuesNothing cuts the site off from the broker: the
// poll returns the typed error, sends nothing and queues nothing.
func TestPartitionedBrokerQueuesNothing(t *testing.T) {
	_, nw, r, ps, _ := newFetchFixture(t, 4)
	reg := faults.New(1)
	nw.SetFaults(reg)
	reg.Partition([]simnet.SiteID{simnet.ASASite}, []simnet.SiteID{2})
	if _, err := r.PollOnce(); !errors.Is(err, faults.ErrUnreachable) {
		t.Fatalf("PollOnce across a partition: err = %v, want ErrUnreachable", err)
	}
	if st := nw.Stats(simnet.ASASite, 2); st.Messages != 0 {
		t.Errorf("link stats = %+v, want no message", st)
	}
	for _, s := range r.snapshot() {
		if s.offset != 0 || len(s.queue) != 0 {
			t.Errorf("partition %d: offset %d, %d queued; want nothing", s.pid, s.offset, len(s.queue))
		}
	}
	for i, p := range ps {
		if p.Version() != 0 {
			t.Errorf("partition %d version = %d", i+1, p.Version())
		}
	}
	reg.Heal()
	if n, err := r.PollOnce(); err != nil || n != len(ps) {
		t.Fatalf("applied %d, %v after healing; want %d", n, err, len(ps))
	}
}

func TestOffsetsTrackConsumption(t *testing.T) {
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	r.Subscribe(7, newPart(7), 0)
	r.Subscribe(8, newPart(8), 2)

	offs := r.Offsets()
	if offs[7] != 0 || offs[8] != 2 {
		t.Fatalf("initial offsets = %v", offs)
	}

	broker.Append(insertRec(7, 1, 1))
	broker.Append(insertRec(7, 2, 2))
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	offs = r.Offsets()
	if offs[7] != 2 {
		t.Errorf("offset after poll = %d, want 2", offs[7])
	}

	// Truncating below the consumed offset must not disturb replication:
	// subsequent polls resume from the consumed offset.
	broker.Truncate(7, offs[7])
	broker.Append(insertRec(7, 3, 3))
	n, err := r.PollOnce()
	if err != nil || n != 1 {
		t.Fatalf("poll after truncate = %d, %v", n, err)
	}
	if offs = r.Offsets(); offs[7] != 3 {
		t.Errorf("offset after truncate+poll = %d, want 3", offs[7])
	}

	r.Unsubscribe(8)
	if _, ok := r.Offsets()[8]; ok {
		t.Error("unsubscribed partition still reported")
	}
}

// TestSubscriptionHoldsTheLog: the broker truncates nothing a
// subscription has yet to fetch, however far it is asked to, and lets the
// records go as the subscription consumes them or is removed.
func TestSubscriptionHoldsTheLog(t *testing.T) {
	broker := redolog.NewBroker()
	broker.CreateTopic(7)
	for v := uint64(1); v <= 4; v++ {
		broker.Append(insertRec(7, v, schema.RowID(v)))
	}
	r := New(broker, nil, 1, simnet.ASASite)
	p := newPart(7)
	r.Subscribe(7, p, 1)
	if broker.Truncate(7, 4); broker.BaseOffset(7) != 1 {
		t.Fatalf("log starts at %d under a subscription at 1, want 1", broker.BaseOffset(7))
	}
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if p.Version() != 4 {
		t.Fatalf("replica at version %d, want 4", p.Version())
	}
	broker.Append(insertRec(7, 5, 5))
	if broker.Truncate(7, 5); broker.BaseOffset(7) != 4 {
		t.Fatalf("log starts at %d after the subscription consumed to 4, want 4", broker.BaseOffset(7))
	}
	r.Unsubscribe(7)
	if broker.Truncate(7, 5); broker.BaseOffset(7) != 5 {
		t.Fatalf("log starts at %d after unsubscribing, want 5", broker.BaseOffset(7))
	}
}

func TestParallelPollOnceAppliesAllSubscriptions(t *testing.T) {
	// More subscriptions than workers: the sharded PollOnce must still
	// visit every subscription and apply everything pending.
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	r.Workers = 4
	const parts = 16
	ps := make([]*partition.Partition, parts)
	for i := 0; i < parts; i++ {
		pid := partition.ID(i + 1)
		ps[i] = newPart(pid)
		r.Subscribe(pid, ps[i], 0)
		for v := uint64(1); v <= 5; v++ {
			broker.Append(insertRec(pid, v, schema.RowID(v)))
		}
	}
	n, err := r.PollOnce()
	if err != nil || n != parts*5 {
		t.Fatalf("applied %d, %v; want %d", n, err, parts*5)
	}
	for i, p := range ps {
		if p.Version() != 5 {
			t.Errorf("partition %d version = %d", i+1, p.Version())
		}
		if _, ok := p.Get(5, []schema.ColID{0}, storage.Latest); !ok {
			t.Errorf("partition %d missing replicated row", i+1)
		}
	}
}

func TestPollOnceConcurrentWithUnsubscribe(t *testing.T) {
	// Unsubscribe racing a parallel PollOnce must never let a dead
	// subscription apply afterwards: once Unsubscribe returns, the
	// partition's state is frozen from replication's point of view.
	broker := redolog.NewBroker()
	r := New(broker, nil, 1, simnet.ASASite)
	r.Workers = 4
	const parts = 8
	ps := make([]*partition.Partition, parts)
	for i := 0; i < parts; i++ {
		pid := partition.ID(i + 1)
		ps[i] = newPart(pid)
		r.Subscribe(pid, ps[i], 0)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < parts; i++ {
				broker.Append(insertRec(partition.ID(i+1), v, schema.RowID(v)))
			}
			if _, err := r.PollOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond)
	victim := ps[3]
	r.Unsubscribe(4)
	frozen := victim.Version()
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	if got := victim.Version(); got != frozen {
		t.Errorf("unsubscribed partition advanced %d -> %d", frozen, got)
	}
}

// TestConcurrentFetchesQueueOnce races background polls against catch-ups
// on the same subscriptions while the log grows: two fetches that read the
// same offset must queue its records once, so every record is applied
// exactly once.
func TestConcurrentFetchesQueueOnce(t *testing.T) {
	const parts, versions = 4, 200
	broker := redolog.NewBroker()
	r := New(broker, simnet.New(simnet.Config{BaseLatency: 0}), 2, simnet.ASASite)
	r.Workers = 2
	ps := make([]*partition.Partition, parts)
	for i := range ps {
		ps[i] = newPart(partition.ID(i + 1))
		r.Subscribe(partition.ID(i+1), ps[i], 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.PollOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for v := uint64(1); v <= versions; v++ {
		for i := range ps {
			broker.Append(insertRec(partition.ID(i+1), v, schema.RowID(v)))
		}
		if _, err := r.CatchUp(partition.ID(v%parts+1), v); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, err := r.PollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := r.Applied(); got != parts*versions {
		t.Errorf("Applied = %d, want %d: a record was queued twice or lost", got, parts*versions)
	}
	for i, p := range ps {
		if p.Version() != versions {
			t.Errorf("partition %d version = %d, want %d", i+1, p.Version(), versions)
		}
	}
}

// pollAllocBudget caps the allocations of one PollOnce over eight
// subscriptions with one new record each, on a zero-latency network with
// four apply workers: the count measured when the budget was set plus
// 10 %. Lower it when a change cuts the count; raise it only with a line
// in CHANGES.md saying why.
const pollAllocBudget = 25 // 23 + 10 % (39 while each subscription polled the broker, sent its own message and applied on a worker of its own)

// TestPollOnceAllocBudget holds a replica site's tick — the one fetch from
// the broker, its message, and the apply sharded over the workers — to its
// allocation budget.
func TestPollOnceAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled fetch batches")
	}
	const parts, rounds = 8, 50
	broker := redolog.NewBroker()
	r := New(broker, simnet.New(simnet.Config{BaseLatency: 0}), 2, simnet.ASASite)
	r.Workers = 4
	for i := 0; i < parts; i++ {
		r.Subscribe(partition.ID(i+1), newPart(partition.ID(i+1)), 0)
	}
	recs := make([]redolog.Record, 0, parts)
	tick := func(v uint64) int {
		recs = recs[:0]
		for i := 0; i < parts; i++ {
			recs = append(recs, insertRec(partition.ID(i+1), v, schema.RowID(v)))
		}
		broker.AppendBatch(recs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := r.PollOnce()
		runtime.ReadMemStats(&after)
		if err != nil || n != parts {
			t.Fatalf("applied %d, %v; want %d", n, err, parts)
		}
		return int(after.Mallocs - before.Mallocs)
	}
	for v := uint64(1); v <= 3; v++ {
		tick(v) // warm the queues and the fetch scratch
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	total := 0
	for v := uint64(4); v < 4+rounds; v++ {
		total += tick(v)
	}
	got := float64(total) / rounds
	t.Logf("%.1f allocs/poll (budget %d)", got, pollAllocBudget)
	if got > pollAllocBudget {
		t.Errorf("%.1f allocs per poll, over its budget of %d", got, pollAllocBudget)
	}
}
