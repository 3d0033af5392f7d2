package chbench_test

// Smoke tests: the CH-benCHmark schema loads on a small engine, every
// analytical query builds against known tables, and the generators are
// seeded-deterministic. NewOrder transactions draw on shared per-district
// sequences and wall-clock timestamps, so the determinism check compares
// the analytical queries and transaction structure.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/query"
	"proteus/internal/simnet"
	"proteus/internal/workload/chbench"
)

func testEngine(t *testing.T) *cluster.Engine {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.NumSites = 2
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = time.Millisecond
	e := cluster.New(cfg)
	t.Cleanup(e.Close)
	return e
}

func smallConfig() chbench.Config {
	c := chbench.DefaultConfig()
	c.Warehouses = 1
	c.DistrictsPerW = 2
	c.CustomersPerDistrict = 10
	c.Items = 50
	c.LoadedOrdersPerDistrict = 10
	c.MaxOrdersPerDistrict = 500
	return c
}

func setup(t *testing.T) *chbench.Workload {
	t.Helper()
	w, err := chbench.Setup(testEngine(t), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSetupLoadsSchema(t *testing.T) {
	setup(t) // Setup fails if any table create or load errors
}

func TestAllQueriesBuild(t *testing.T) {
	w := setup(t)
	rng := rand.New(rand.NewSource(3))
	for qn := 0; qn < chbench.NumQueries; qn++ {
		q := w.Query(qn, rng)
		if q == nil || q.Root == nil {
			t.Fatalf("query %d is nil", qn)
		}
		if len(q.Root.Tables()) == 0 {
			t.Fatalf("query %d touches no tables", qn)
		}
	}
}

func TestClientGeneratorsValid(t *testing.T) {
	w := setup(t)
	c := w.NewClient(0, rand.New(rand.NewSource(7)))
	for i := 0; i < 20; i++ {
		txn := c.OLTP()
		if len(txn.Ops) == 0 {
			t.Fatal("empty transaction")
		}
		q := c.OLAP()
		if q == nil || q.Root == nil {
			t.Fatal("nil OLAP query")
		}
	}
}

// renderShape renders a transaction without values (order inserts carry
// wall-clock entry dates).
func renderShape(txn *query.Txn) string {
	s := ""
	for _, op := range txn.Ops {
		s += fmt.Sprintf("(%d t%d r%d c%v)", op.Kind, op.Table, op.Row, op.Cols)
	}
	return s
}

func TestGeneratorsSeededDeterministic(t *testing.T) {
	w1, w2 := setup(t), setup(t)
	c1 := w1.NewClient(2, rand.New(rand.NewSource(19)))
	c2 := w2.NewClient(2, rand.New(rand.NewSource(19)))
	for i := 0; i < 15; i++ {
		if a, b := renderShape(c1.OLTP()), renderShape(c2.OLTP()); a != b {
			t.Fatalf("iteration %d: OLTP diverged\n%s\n%s", i, a, b)
		}
		qa, qb := c1.OLAP(), c2.OLAP()
		if qa.Root.String() != qb.Root.String() {
			t.Fatalf("iteration %d: OLAP diverged\n%s\n%s", i, qa.Root, qb.Root)
		}
	}
	// Same workload, different seeds: the item-zipf should eventually
	// produce different orders (sanity that the seed actually matters).
	c3 := w1.NewClient(2, rand.New(rand.NewSource(20)))
	diverged := false
	for i := 0; i < 15; i++ {
		if renderShape(c3.OLTP()) != renderShape(c2.OLTP()) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds produced identical transaction streams")
	}
}

// TestTxnsReadAtTheirCoordinator: on two Janus sites every warehouse's
// rows have a copy at its home site (the row master, or the other site's
// column replica) and the item table a copy at each, so no CH transaction
// needs a read round trip: the planner binds each read to the copy at the
// transaction's coordinator. Clients of all four warehouses run 200
// transactions, and no read message may cross the network.
func TestTxnsReadAtTheirCoordinator(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Mode = cluster.ModeJanus
	cfg.NumSites = 2
	cfg.Net = simnet.Config{}
	cfg.ReplicationInterval = time.Millisecond
	e := cluster.New(cfg)
	t.Cleanup(e.Close)
	c := smallConfig()
	c.Warehouses = 4
	w, err := chbench.Setup(e, c)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*chbench.Client, c.Warehouses)
	for i := range clients {
		clients[i] = w.NewClient(i, rand.New(rand.NewSource(int64(i)+1)))
	}
	reads := e.Obs.Counter("net.messages." + simnet.KindRead.String())
	before := reads.Value()
	sess := e.NewSession()
	for i := 0; i < 200; i++ {
		if _, err := e.ExecuteTxn(context.Background(), sess, clients[i%len(clients)].OLTP()); err != nil {
			t.Fatalf("transaction %d: %v", i, err)
		}
	}
	if n := reads.Value() - before; n != 0 {
		t.Errorf("%d read messages over 200 transactions, want 0", n)
	}
}
