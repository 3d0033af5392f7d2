package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"proteus/internal/disksim"
	"proteus/internal/exec"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Fig3 reproduces the microbenchmark of Figure 3: the average latency of
// 100 single-row updates and of scans over 10,000 rows reading 1 of 10
// columns at 10% and 100% selectivity, on row vs column storage. The
// expected shape: rows win updates (~2x), columns win scans (~7x). The
// update shape is checked on the heap bytes an update writes — a row update
// copies one 80-byte row array, a column update gathers the row out of ten
// column arrays into boxed cells and copies those into the delta store —
// because 100 updates take a fraction of a millisecond, which on a loaded
// host says more about the scheduler than about the layouts. The wall
// times are printed beside it.
func Fig3(w io.Writer, s Scale) error {
	const (
		rows    = 10000
		cols    = 10
		updates = 100
	)
	kinds := make([]types.Kind, cols)
	for i := range kinds {
		kinds[i] = types.KindInt64
	}
	f := partition.Factory{Dev: disksim.New(disksim.Config{})}
	bounds := partition.Bounds{Table: 0, RowStart: 0, RowEnd: rows, ColStart: 0, ColEnd: cols}

	data := make([]schema.Row, rows)
	for i := range data {
		vals := make([]types.Value, cols)
		for c := range vals {
			vals[c] = types.NewInt64(int64(i*cols + c))
		}
		data[i] = schema.Row{ID: schema.RowID(i), Vals: vals}
	}

	mk := func(l storage.Layout) *partition.Partition {
		p := partition.New(1, bounds, kinds, l, f)
		if err := p.Load(data, 1); err != nil {
			panic(err)
		}
		return p
	}

	layouts := map[string]storage.Layout{
		"row":    storage.DefaultRowLayout(),
		"column": storage.DefaultColumnLayout(),
	}

	header(w, "Fig 3a: average update latency (100 updates, all columns)")
	updLat := map[string]time.Duration{}
	updBytes := map[string]uint64{}
	for _, name := range []string{"row", "column"} {
		p := mk(layouts[name])
		allCols := make([]schema.ColID, cols)
		vals := make([]types.Value, cols)
		for c := range allCols {
			allCols[c] = schema.ColID(c)
			vals[c] = types.NewInt64(int64(-c))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for u := 0; u < updates; u++ {
			if _, err := exec.Update(p, schema.RowID(u%rows), allCols, vals, uint64(u+2)); err != nil {
				return err
			}
		}
		updLat[name] = time.Since(start) / updates
		runtime.ReadMemStats(&after)
		updBytes[name] = (after.TotalAlloc - before.TotalAlloc) / updates
	}
	for _, name := range []string{"row", "column"} {
		fmt.Fprintf(w, "  %-7s %v, %d heap bytes written per update\n", name, updLat[name], updBytes[name])
	}
	fmt.Fprintf(w, "  shape check (bytes written, load-independent): row cheaper for updates = %v (%.1fx)\n",
		updBytes["row"] < updBytes["column"], float64(updBytes["column"])/float64(updBytes["row"]))
	fmt.Fprintf(w, "  wall clock, informational: row faster for updates = %v\n", updLat["row"] < updLat["column"])

	scan := func(p *partition.Partition, sel float64) time.Duration {
		pred := storage.Pred{{Col: 0, Op: storage.CmpLt,
			Val: types.NewInt64(int64(float64(rows*cols) * sel))}}
		if sel >= 1 {
			pred = nil
		}
		start := time.Now()
		const reps = 20
		for i := 0; i < reps; i++ {
			rel, _, _ := exec.Scan(p, []schema.ColID{1}, pred, storage.Latest)
			_ = rel
		}
		return time.Since(start) / reps
	}

	for _, sel := range []float64{0.1, 1.0} {
		header(w, fmt.Sprintf("Fig 3%s: scan of 10,000 rows, 1 of 10 columns, select=%d%%",
			map[float64]string{0.1: "b", 1.0: "c"}[sel], int(sel*100)))
		lat := map[string]time.Duration{}
		for name, l := range layouts {
			lat[name] = scan(mk(l), sel)
		}
		for _, name := range []string{"row", "column"} {
			fmt.Fprintf(w, "  %-7s %v\n", name, lat[name])
		}
		ratio := float64(lat["row"]) / float64(lat["column"])
		fmt.Fprintf(w, "  shape check: column speedup over row = %.1fx (paper: ~7x)\n", ratio)
	}
	return nil
}
