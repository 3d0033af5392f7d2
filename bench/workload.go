package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"proteus/internal/cluster"
	"proteus/internal/disksim"
	"proteus/internal/exec"
	"proteus/internal/partition"
	"proteus/internal/query"
	"proteus/internal/schema"
	"proteus/internal/simnet"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/vclock"
)

// workload is one fixed-work input set. The timed section runs
// N = opsPerSec × seconds operations whatever the code's speed, so a
// history-dependent cost (oltp-rmw's dependency tracker) is measured over
// the same history on every commit. opsPerSec was measured once on the
// commit that introduced the benchmark, on a 2-core box, so that N
// operations take about `seconds`; it is frozen — changing it makes
// results incomparable with every earlier run.
type workload struct {
	name      string
	why       string
	opsPerSec float64
	// setupReps is how many times a run sets the workload up (setup_s is
	// the median): more for the set-ups that take well under a second.
	setupReps int
	build     func(env buildEnv) (*instance, error)
}

var workloads = []workload{
	{
		name:      "oltp-rmw",
		why:       "closed-loop 10-key read-modify-write on a row store: admission, plan, locks, 2PC, group commit, redo and replication carry all the work, the scan/join engine none",
		opsPerSec: 262,
		setupReps: 5,
		build:     buildOLTP,
	},
	{
		name:      "olap-scan",
		why:       "closed-loop rotation of six read-only scan shapes on an encoded column store with two disk-tier partitions: scan kernels, zone maps and morsel scheduling do the work, the commit path none",
		opsPerSec: 220,
		setupReps: 3,
		build:     buildScan,
	},
	{
		name:      "olap-join",
		why:       "closed-loop rotation of the five CH-benCHmark join shapes at 400k orderlines: batch hash join, runtime filters, group-by and cross-site shipping dominate, scans only feed them",
		opsPerSec: 16,
		setupReps: 3,
		build:     buildJoin,
	},
	{
		name:      "htap-mixed",
		why:       "open loop at fixed rates, CH transactions on row masters beside the eight CH queries on column replicas: a scan gain bought with slower writes, merge stalls or replica lag shows here",
		opsPerSec: htapTxnRate + htapQueryRate,
		setupReps: 5,
		build:     buildHTAP,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildEnv is what a workload is built from: nothing but the seed, the
// operation count and the plane.
type buildEnv struct {
	seed int64
	// n is the number of timed operations; every stream carries a warm-up
	// prefix of warmShare × its share of n in front of them.
	n int
	// clock selects the plane. nil is the CPU plane: wall clock, modelled
	// network and disk latency zeroed, so wall time is CPU plus
	// synchronisation. A *vclock.Sim is the modelled plane: default
	// simnet/disksim latencies charged in virtual time.
	clock vclock.Clock
}

// warmShare of the op list runs, untimed, at the end of set-up.
const warmShare = 0.05

func warmOps(n int) int { return int(math.Ceil(float64(n) * warmShare)) }

// engineConfig is the 2-site cluster every workload runs on.
func engineConfig(mode cluster.Mode, clk vclock.Clock) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = 2
	cfg.Clock = clk
	if clk == nil {
		cfg.Net = simnet.Config{}
		cfg.Site.Disk = disksim.Config{}
	} else {
		cfg.Site.Disk = disksim.DefaultConfig()
	}
	return cfg
}

// op is one pre-generated operation: a transaction or a query, plus what
// its result must be.
type op struct {
	txn *query.Txn
	q   *query.Query
	// shape indexes the workload's shape table; it names the op's span and
	// sets the tracing alternation period.
	shape int
	// wantReads holds, for a transaction, the single value each read op
	// must return, in op order (nil = unchecked).
	wantReads []types.Value
	// want is the oracle answer of a query (nil = unchecked).
	want *exec.Rel
}

func (o *op) exec(ctx context.Context, e *cluster.Engine, sess *cluster.Session) (exec.Rel, error) {
	if o.txn != nil {
		return e.ExecuteTxn(ctx, sess, o.txn)
	}
	return e.ExecuteQuery(ctx, sess, o.q)
}

// check compares a result with what generation said it must be.
func (o *op) check(rel exec.Rel) error {
	if o.want != nil {
		return relsMatch(rel, *o.want)
	}
	if o.wantReads != nil {
		if len(rel.Tuples) != len(o.wantReads) {
			return fmt.Errorf("txn returned %d read tuples, want %d", len(rel.Tuples), len(o.wantReads))
		}
		for i, w := range o.wantReads {
			if len(rel.Tuples[i]) != 1 || !types.Equal(rel.Tuples[i][0], w) {
				return fmt.Errorf("read %d returned %v, want %v", i, rel.Tuples[i], w)
			}
		}
	}
	return nil
}

// stream is one client goroutine's operation list.
type stream struct {
	name string
	ops  []op // warm-up prefix, then the timed operations
	warm int
	// rate is the open-loop offered rate in ops/s; 0 means closed loop.
	rate float64
	// period is the tracing alternation period: the number of shapes the
	// stream rotates through.
	period int
}

// instance is a built workload: a loaded engine, the op lists, and the
// output check to run afterwards.
type instance struct {
	e       *cluster.Engine
	streams []*stream
	shapes  []string
	// verify checks the stored outputs after the timed section and returns
	// how many values it compared.
	verify func() (int, error)
	// partsPerTxn and crossSiteShare describe the transaction list.
	partsPerTxn, crossSiteShare float64
	// probe carries inputs captured for the per-layer probes.
	probe probeInputs
}

func (in *instance) close() { in.e.Close() }

func (in *instance) openLoop() bool { return in.streams[0].rate > 0 }

// hasTxns reports whether any stream issues transactions (a stream is all
// transactions or all queries).
func (in *instance) hasTxns() bool {
	for _, s := range in.streams {
		if s.ops[0].txn != nil {
			return true
		}
	}
	return false
}

// timedOps counts the operations of the timed section.
func (in *instance) timedOps() int {
	n := 0
	for _, s := range in.streams {
		n += len(s.ops) - s.warm
	}
	return n
}

// describeTxns fills partsPerTxn and crossSiteShare from the op lists.
func (in *instance) describeTxns() {
	var txns, parts, cross int
	for _, s := range in.streams {
		for i := range s.ops {
			t := s.ops[i].txn
			if t == nil {
				continue
			}
			pids := map[partition.ID]bool{}
			sites := map[simnet.SiteID]bool{}
			for _, o := range t.Ops {
				for _, m := range in.e.Dir.PartitionForRow(o.Table, o.Row, nil) {
					pids[m.ID] = true
					sites[m.Master().Site] = true
				}
			}
			txns++
			parts += len(pids)
			if len(sites) > 1 {
				cross++
			}
		}
	}
	if txns > 0 {
		in.partsPerTxn = float64(parts) / float64(txns)
		in.crossSiteShare = float64(cross) / float64(txns)
	}
}

// hashOps digests every stream's op list; the same seed must give the same
// digest, byte for byte.
func hashOps(streams []*stream) string {
	h := sha256.New()
	for _, s := range streams {
		fmt.Fprintf(h, "stream %s warm=%d rate=%g\n", s.name, s.warm, s.rate)
		for i := range s.ops {
			o := &s.ops[i]
			if o.txn != nil {
				for _, x := range o.txn.Ops {
					fmt.Fprintf(h, "t %d %d %d %v", x.Kind, x.Table, x.Row, x.Cols)
					for _, v := range x.Vals {
						hashValue(h, v)
					}
					io.WriteString(h, "\n")
				}
			} else {
				hashNode(h, o.q.Root)
			}
			io.WriteString(h, ";\n")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashValue writes a value's full payload (Value.String drops sub-second
// time digits).
func hashValue(w io.Writer, v types.Value) {
	fmt.Fprintf(w, " %d:%d:%g:%q", v.K, v.I, v.F, v.S)
}

func hashNode(w io.Writer, n query.Node) {
	switch v := n.(type) {
	case *query.ScanNode:
		fmt.Fprintf(w, "scan %d %v", v.Table, v.Cols)
		for _, c := range v.Pred {
			fmt.Fprintf(w, " %d%s", c.Col, c.Op)
			hashValue(w, c.Val)
		}
	case *query.JoinNode:
		fmt.Fprintf(w, "join %d=%d (", v.LeftKeyCol, v.RightKeyCol)
		hashNode(w, v.Left)
		io.WriteString(w, ") (")
		hashNode(w, v.Right)
		io.WriteString(w, ")")
	case *query.AggNode:
		fmt.Fprintf(w, "agg by=%v", v.GroupBy)
		for _, a := range v.Aggs {
			fmt.Fprintf(w, " %s(%d)", a.Func, a.Col)
		}
		io.WriteString(w, " (")
		hashNode(w, v.Child)
		io.WriteString(w, ")")
	}
}

// tableRows extracts a table's rows from its master copies below the query
// executor (Partition.ExtractAll), so oracle answers do not pass through
// the scan, join or aggregation code they check.
func tableRows(e *cluster.Engine, t schema.TableID) []schema.Row {
	var rows []schema.Row
	for _, m := range e.Dir.TablePartitions(t) {
		if p, ok := e.Sites[int(m.Master().Site)].Partition(m.ID); ok {
			rows = append(rows, p.ExtractAll(storage.Latest)...)
		}
	}
	return rows
}

// relsMatch compares a query result with its oracle answer: same shape,
// same rows in any order, numbers equal to a relative 1e-9 (the engine
// sums partials in scheduling order).
func relsMatch(got, want exec.Rel) error {
	if len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("result has %d rows, oracle %d", len(got.Tuples), len(want.Tuples))
	}
	g, w := sortedTuples(got), sortedTuples(want)
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("row %d has %d columns, oracle %d", i, len(g[i]), len(w[i]))
		}
		for c := range w[i] {
			if !valsMatch(g[i][c], w[i][c]) {
				return fmt.Errorf("row %d col %d is %v, oracle %v", i, c, g[i][c], w[i][c])
			}
		}
	}
	return nil
}

func sortedTuples(r exec.Rel) [][]types.Value {
	ts := append([][]types.Value(nil), r.Tuples...)
	sort.Slice(ts, func(i, j int) bool {
		for c := range ts[i] {
			if c >= len(ts[j]) {
				return false
			}
			if cmp := types.Compare(ts[i][c], ts[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return ts
}

func isNumber(v types.Value) bool { return v.K == types.KindInt64 || v.K == types.KindFloat64 }

func valsMatch(a, b types.Value) bool {
	if isNumber(a) && isNumber(b) {
		af, bf := a.Float(), b.Float()
		return af == bf || math.Abs(af-bf) <= 1e-9*math.Max(math.Abs(af), math.Abs(bf))
	}
	return types.Equal(a, b)
}
