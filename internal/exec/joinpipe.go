package exec

import (
	"sync"
	"time"

	"proteus/internal/schema"
	"proteus/internal/storage"
)

// Pipelined probing (§4.3). A left-deep chain of hash joins whose probe
// side is a scan does not materialize anything but its build sides: each
// scan batch runs through the chain's probe stages inside the scan worker —
// stage k looks the batch's current rows up in build table k and fans them
// out by their matches — and the surviving rows reach the worker's sink
// (an Aggregator, a column chunk, boxed tuples) as one more Batch. A row in
// flight is a scan-batch row index plus one build row per stage, so no
// joined tuple exists until the sink asks for the columns it reads.

// ColRef names a column flowing through a JoinPipe: column Col of the
// probe-side scan batch (Stage < 0) or of stage Stage's build relation.
type ColRef struct{ Stage, Col int }

// ProbeStage is one join of a pipeline: probe Table with the key at Key.
// A stage with no Table only narrows the scan batch by Filter — the
// semi-join reduction a materializing join pushes into its probe scan —
// and its Key must then name a scan column.
type ProbeStage struct {
	Table  *JoinTable
	Filter *RuntimeFilter
	Key    ColRef

	keep bool // its build rows are read by a later key or by the output
}

// JoinPipe is an immutable description of a probe chain: its stages in
// probe order and the columns its output batches carry. Workers each take a
// Prober from it.
type JoinPipe struct {
	Stages []ProbeStage
	Out    []ColRef

	scanOnly bool // every Out column comes from the scan batch
}

// NewJoinPipe assembles a pipeline, which takes stages over, and counts its
// table stages as executed joins (exec.join.count, build_rows, build_ns,
// pipelined).
func NewJoinPipe(stages []ProbeStage, out []ColRef) *JoinPipe {
	p := &JoinPipe{Stages: stages, Out: out, scanOnly: true}
	for _, st := range stages {
		if st.Key.Stage >= 0 {
			stages[st.Key.Stage].keep = true
		}
		if st.Table != nil {
			statJoins.Add(1)
			statJoinPipelined.Add(1)
			statJoinBuildRows.Add(int64(st.Table.Rows()))
			statJoinBuildNanos.Add(st.Table.buildNanos)
		}
	}
	for _, ref := range out {
		if ref.Stage >= 0 {
			stages[ref.Stage].keep = true
			p.scanOnly = false
		}
	}
	return p
}

// StageStats is what one stage did for one Prober (or a sum of them).
type StageStats struct {
	ProbeRows, OutRows int64
	Nanos              int64
}

// Add folds o into s.
func (s *StageStats) Add(o StageStats) {
	s.ProbeRows += o.ProbeRows
	s.OutRows += o.OutRows
	s.Nanos += o.Nanos
}

// Prober is one worker's mutable half of a JoinPipe: the scratch its
// batches flow through. Not safe for concurrent use; a nil Prober passes
// batches through untouched.
type Prober struct {
	p *JoinPipe
	*probeScratch
	view  storage.Batch
	stats []StageStats

	steps, bloomTested, bloomPassed int64
}

// probeScratch is a Prober's row lists and buffers. Close returns it to
// probeScratchPool, so the next query's workers reuse what this one's
// grew: a join whose matches outnumber its probe rows regrows its lists
// only while the pool is empty.
type probeScratch struct {
	keys  keyScratch
	m     matches
	sel   []int32   // row in flight -> scan-batch row
	rows  [][]int32 // per stage: row in flight -> build row
	spare []int32   // gather target, swapped with what it replaces
	dense storage.Batch
	ids   []schema.RowID // zero row ids backing dense batches
}

var probeScratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// NewProber returns a worker-local prober for the pipeline. Its row lists
// — the matches, the rows in flight, each kept stage's build rows and the
// gather target they swap with — hold batchRows rows each before they
// grow; those a pooled scratch brings too short are carved from one
// allocation.
func (p *JoinPipe) NewProber(batchRows int) *Prober {
	sc := probeScratchPool.Get().(*probeScratch)
	if cap(sc.rows) < len(p.Stages) {
		sc.rows = make([][]int32, len(p.Stages))
	}
	sc.rows = sc.rows[:len(p.Stages)]
	var held [8]*[]int32
	lists := append(held[:0], &sc.m.pos, &sc.m.row, &sc.sel, &sc.spare)
	for k, st := range p.Stages {
		if st.keep && st.Table != nil {
			lists = append(lists, &sc.rows[k])
		}
	}
	short := 0
	for _, l := range lists {
		if cap(*l) < batchRows {
			short++
		}
	}
	buf := make([]int32, short*batchRows)
	for _, l := range lists {
		if cap(*l) < batchRows {
			*l, buf = buf[:0:batchRows], buf[batchRows:]
		}
	}
	return &Prober{
		p:            p,
		probeScratch: sc,
		stats:        make([]StageStats, len(p.Stages)),
		view:         storage.Batch{Vecs: make([]storage.Vec, len(p.Out))},
	}
}

// gather sets dst[i] = src[pos[i]], reusing dst's capacity.
func gather(dst, src, pos []int32) []int32 {
	dst = dst[:0]
	for _, p := range pos {
		dst = append(dst, src[p])
	}
	return dst
}

// Apply runs one scan batch through the stages and returns the joined
// batch — nil when no row survives. The result (and b.Sel, which filter
// stages narrow in place) borrows the prober's scratch and b's vectors: it
// is valid until the next Apply and no longer than b.
func (pr *Prober) Apply(b *storage.Batch) *storage.Batch {
	if pr == nil {
		return b
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	sel := b.Sel // nil: rows in flight are scan rows [0,n)
	for k := range pr.p.Stages {
		st := &pr.p.Stages[k]
		if st.Table == nil {
			// FilterBatch's scratch must not alias b.Sel, which pr.sel may.
			pr.spare = st.Filter.FilterBatch(b, st.Key.Col, pr.spare)
			pr.sel, pr.spare = pr.spare, pr.sel
			if sel, n = b.Sel, b.Len(); n == 0 {
				return nil
			}
			continue
		}
		start := time.Now()
		var kv *storage.Vec
		idx := sel
		if st.Key.Stage >= 0 {
			kv, idx = &pr.p.Stages[st.Key.Stage].Table.cols.Vecs[st.Key.Col], pr.rows[st.Key.Stage]
		} else {
			kv = &b.Vecs[st.Key.Col]
		}
		m := &pr.m
		m.reset()
		st.Table.probe(canonKeys(kv, idx, n, &pr.keys), m)
		pr.steps += m.steps
		pr.bloomTested += m.bloomTested
		pr.bloomPassed += m.bloomPassed

		// Fan the rows in flight out by their matches.
		if sel == nil {
			pr.sel = append(pr.sel[:0], m.pos...)
		} else {
			pr.spare = gather(pr.spare, sel, m.pos)
			pr.sel, pr.spare = pr.spare, pr.sel
		}
		sel = pr.sel
		for j := 0; j < k; j++ {
			if pr.p.Stages[j].keep && pr.p.Stages[j].Table != nil {
				pr.spare = gather(pr.spare, pr.rows[j], m.pos)
				pr.rows[j], pr.spare = pr.spare, pr.rows[j]
			}
		}
		if st.keep {
			pr.rows[k], m.row = m.row, pr.rows[k]
		}
		stat := &pr.stats[k]
		stat.ProbeRows += m.probed
		stat.OutRows += int64(len(sel))
		stat.Nanos += time.Since(start).Nanoseconds()
		if n = len(sel); n == 0 {
			return nil
		}
	}
	if pr.p.scanOnly {
		return pr.output(b, sel, n)
	}
	// Gathering the dense output is the last join's materialization.
	start := time.Now()
	out := pr.output(b, sel, n)
	pr.stats[len(pr.stats)-1].Nanos += time.Since(start).Nanoseconds()
	return out
}

// output assembles the batch the sink sees. When every output column is a
// scan column the result is a view: the scan batch's vectors under the
// fanned-out selection. Otherwise every output column is gathered into an
// owned dense batch.
func (pr *Prober) output(b *storage.Batch, sel []int32, n int) *storage.Batch {
	if pr.p.scanOnly {
		out := &pr.view
		for i, ref := range pr.p.Out {
			out.Vecs[i] = b.Vecs[ref.Col]
		}
		out.Sel = sel
		return out
	}
	out := &pr.dense
	out.Reset(len(pr.p.Out))
	for i, ref := range pr.p.Out {
		if ref.Stage < 0 {
			out.Vecs[i].AppendVec(&b.Vecs[ref.Col], sel)
			continue
		}
		out.Vecs[i].AppendVec(&pr.p.Stages[ref.Stage].Table.cols.Vecs[ref.Col], pr.rows[ref.Stage])
	}
	if cap(pr.ids) < n {
		pr.ids = make([]schema.RowID, n)
	}
	out.SetRowIDsView(pr.ids[:n])
	return out
}

// Close flushes the prober's counters into exec.join.* and returns what
// each stage did, for the caller's per-site cost observations. The prober
// is done after it.
func (pr *Prober) Close() []StageStats {
	if pr == nil {
		return nil
	}
	for _, st := range pr.stats {
		statJoinProbeRows.Add(st.ProbeRows)
		statJoinOutRows.Add(st.OutRows)
		statJoinProbeNanos.Add(st.Nanos)
	}
	statJoinChainSteps.Add(pr.steps)
	statBloomTested.Add(pr.bloomTested)
	statBloomPassed.Add(pr.bloomPassed)
	probeScratchPool.Put(pr.probeScratch)
	pr.probeScratch = nil
	return pr.stats
}
