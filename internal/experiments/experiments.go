// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, Appendices A–B) at laptop scale: the row-vs-column
// microbenchmark (Fig 3), workload completion times and OLTP/OLAP
// performance for YCSB, CH-benCHmark and Twitter across the five system
// architectures (Figs 8–11), scalability (Fig 12a), adaptivity over time
// (Figs 12b–c, 13), the ablation study (Figs 9d/9h), freshness gaps
// (Fig 14), the cross-warehouse sweep (Fig 15), and the operation
// time-accounting tables (Tables 4–5). Each experiment prints the same
// rows/series the paper reports; absolute numbers differ from the paper's
// testbed, but the shapes are the reproduction target (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/simnet"
)

// Scale sizes experiments. Quick keeps CI runs in seconds; Full is the
// default for reported numbers.
type Scale struct {
	Name         string
	Sites        int
	Clients      int
	Rounds       int // OLAP rounds per client in completion runs
	YCSBRows     int64
	CHOrders     int // loaded orders per district
	TwitterUsers int
	Duration     time.Duration // timed runs (adaptivity figures)
	Repeats      int           // runs per point for confidence intervals
}

// Quick is the smoke-test scale.
var Quick = Scale{
	Name: "quick", Sites: 2, Clients: 4, Rounds: 3,
	YCSBRows: 4000, CHOrders: 10, TwitterUsers: 300,
	Duration: 2 * time.Second, Repeats: 1,
}

// Full is the reporting scale.
var Full = Scale{
	Name: "full", Sites: 3, Clients: 9, Rounds: 8,
	YCSBRows: 30000, CHOrders: 40, TwitterUsers: 800,
	Duration: 10 * time.Second, Repeats: 3,
}

// Systems lists the evaluated architectures in the paper's order.
var Systems = []cluster.Mode{
	cluster.ModeProteus, cluster.ModeRowStore, cluster.ModeColumnStore,
	cluster.ModeJanus, cluster.ModeTiDB,
}

// Experiment is one registered reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, s Scale) error
}

// All registers every experiment, keyed by the paper artifact it
// regenerates.
var All = []Experiment{
	{"fig3", "Fig 3: row vs column format microbenchmark", Fig3},
	{"fig8a", "Fig 8a: YCSB workload completion time", Fig8a},
	{"fig8b", "Fig 8b: CH-benCHmark completion time", Fig8b},
	{"fig8c", "Fig 8c: CH latency vs throughput", Fig8c},
	{"fig8d", "Fig 8d: Twitter completion time", Fig8d},
	{"fig9", "Fig 9a-c,e-g: YCSB OLTP throughput and OLAP latency", Fig9},
	{"fig9-ablation", "Fig 9d,9h: ablation study", Fig9Ablation},
	{"fig10", "Fig 10: CH OLTP throughput and per-query OLAP latency", Fig10},
	{"fig11", "Fig 11: Twitter OLTP throughput and OLAP latency", Fig11},
	{"fig12a", "Fig 12a: scalability with data sites", Fig12a},
	{"fig12b", "Fig 12b: adaptivity over time (cold start)", Fig12b},
	{"fig12c", "Fig 12c: adaptivity with shifting skew (pre-trained)", Fig12c},
	{"fig13", "Fig 13: shifting workload mix over time", Fig13},
	{"fig14", "Fig 14: OLAP freshness gap", Fig14},
	{"fig15", "Fig 15: cross-warehouse transaction sweep", Fig15},
	{"tab4", "Table 4: time share per operation class", Tab4},
	{"tab5", "Table 5: planning and layout-change overheads", Tab5},
	{"overload", "Overload: token-bucket admission vs AlwaysAdmit at 10x capacity (BENCH_overload.json)", OverloadBench},
}

// Find locates an experiment by ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// engineFor builds an engine for one architecture at scale.
func engineFor(mode cluster.Mode, s Scale) *cluster.Engine {
	cfg := cluster.DefaultConfig()
	cfg.Mode = mode
	cfg.NumSites = s.Sites
	cfg.Net = simnet.Config{BaseLatency: 20 * time.Microsecond, BytesPerSecond: 1 << 30}
	cfg.ReplicationInterval = 2 * time.Millisecond
	cfg.MaintainInterval = 10 * time.Millisecond
	return cluster.New(cfg)
}

// header prints a section header.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// meanCI renders mean ± half-width.
func meanCI(mean, half float64, unit string) string {
	if half > 0 {
		return fmt.Sprintf("%.2f ± %.2f %s", mean, half, unit)
	}
	return fmt.Sprintf("%.2f %s", mean, unit)
}
