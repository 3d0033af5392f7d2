package exec

import (
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Aggregator is the group-by table. Every aggregate the engine computes
// accumulates in one: each scan worker's partial, their per-site merge,
// and the coordinator's combine of the sites' partials (HashAggregate).
//
// Keys follow JoinTable's hash contract. Each key column is canonicalized
// by canonKeys and hashed through hashKey/hashValue, and several key
// columns mix their hashes, so keys that compare types.Equal (NULL with
// NULL, 1 with 1.0, a FoR code with the plain value it encodes) land in
// one group whichever vector or tuple they arrive in. A key maps to a
// dense group id, in first-seen order, through an open-addressed slot
// array kept at most half full; each group's first-seen key values are
// its output labels. Aggregate state lives in one column per spec indexed
// by group id, so a group costs no allocation of its own. An ungrouped
// aggregate is group 0, which exists before any row arrives: SQL gives a
// global aggregate over no rows one row.
type Aggregator struct {
	groupBy []int
	cols    []aggCol
	n       int             // groups
	slots   []int32         // group id + 1 per slot, 0 when free
	labels  [][]types.Value // key column -> group id -> first-seen key value

	keys []keyCol     // the key columns of the rows being grouped
	scr  []keyScratch // canonKeys buffers, one per key column
	gids []int32      // the group of each row being grouped
	iota []int32      // 0, 1, 2, ...: the rows of a batch without a selection
}

// aggCol is one aggregate's state, indexed by group id.
type aggCol struct {
	fn   AggFunc
	col  int           // input position; COUNT reads none
	vals []types.Value // SUM, AVG: running sum; MIN, MAX: extreme so far
	cnts []int64       // COUNT, AVG: rows observed
}

// NewAggregator creates an accumulator for the groupBy positions and specs,
// both over the input tuple layout.
func NewAggregator(groupBy []int, specs []AggSpec) *Aggregator {
	a := &Aggregator{groupBy: groupBy, cols: make([]aggCol, len(specs))}
	for i, sp := range specs {
		a.cols[i] = aggCol{fn: sp.Func, col: sp.Col}
	}
	if len(groupBy) == 0 {
		a.n = 1
		a.reserve(1)
		return a
	}
	a.labels = make([][]types.Value, len(groupBy))
	a.keys = make([]keyCol, len(groupBy))
	a.scr = make([]keyScratch, len(groupBy))
	return a
}

// reserve sizes the key table and every state column for n groups, n
// rounded up to a power of two.
func (a *Aggregator) reserve(n int) {
	size := 1
	for size < n {
		size *= 2
	}
	for i := range a.cols {
		c := &a.cols[i]
		if c.fn != AggCount {
			c.vals = extend(c.vals, size)
		}
		if c.fn == AggCount || c.fn == AggAvg {
			c.cnts = extend(c.cnts, size)
		}
	}
	if len(a.groupBy) == 0 {
		return
	}
	for k := range a.labels {
		a.labels[k] = extend(a.labels[k], size)
	}
	a.slots = make([]int32, 2*size)
	mask := uint64(len(a.slots) - 1)
	for g := 0; g < a.n; g++ {
		h := hashValue(a.labels[0][g])
		for _, l := range a.labels[1:] {
			h = mixKeys(h, hashValue(l[g]))
		}
		s := h & mask
		for a.slots[s] != 0 {
			s = (s + 1) & mask
		}
		a.slots[s] = int32(g) + 1
	}
}

func extend[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// mixKeys folds the hash of a further key column into a row's key hash.
func mixKeys(h, k uint64) uint64 { return mix64(h*0x9e3779b97f4a7c15 ^ k) }

// groupIDs sets gids[i] to the group of key row i of a.keys, adding a group
// for every key not seen before. A new group's label is its boxed key, or
// for a typed key column row rows[i] of that column's vector in vecs.
func (a *Aggregator) groupIDs(gids []int32, vecs []storage.Vec, rows []int32) {
	ks := a.keys
next:
	for i := range gids {
		if a.n == len(a.slots)/2 {
			a.reserve(max(16, 4*a.n))
		}
		h := ks[0].hash(i)
		for _, kc := range ks[1:] {
			h = mixKeys(h, kc.hash(i))
		}
		mask := uint64(len(a.slots) - 1)
		s := h & mask
		for ; a.slots[s] != 0; s = (s + 1) & mask {
			if g := a.slots[s] - 1; a.sameKey(g, i) {
				gids[i] = g
				continue next
			}
		}
		g := int32(a.n)
		a.n++
		a.slots[s] = g + 1
		for k, kc := range ks {
			if kc.vals != nil {
				a.labels[k][g] = kc.vals[i]
			} else {
				a.labels[k][g] = vecs[a.groupBy[k]].Value(int(rows[i]))
			}
		}
		gids[i] = g
	}
}

// sameKey reports whether key row i of a.keys is group g's key.
func (a *Aggregator) sameKey(g int32, i int) bool {
	for k := range a.keys {
		kc, l := &a.keys[k], &a.labels[k][g]
		if kc.ints != nil {
			if x, ok := canonInt(*l); !ok || x != kc.ints[i] {
				return false
			}
		} else if !types.Equal(kc.vals[i], *l) {
			return false
		}
	}
	return true
}

// gidBuf returns the group-id scratch sized for n rows.
func (a *Aggregator) gidBuf(n int) []int32 {
	if cap(a.gids) < n {
		a.gids = make([]int32, n)
	}
	return a.gids[:n]
}

// rowsUpTo returns the rows 0..n-1.
func (a *Aggregator) rowsUpTo(n int) []int32 {
	for i := len(a.iota); i < n; i++ {
		a.iota = append(a.iota, int32(i))
	}
	return a.iota[:n]
}

// Observe folds one input tuple into its group.
func (a *Aggregator) Observe(t []types.Value) {
	g := int32(0)
	if len(a.groupBy) > 0 {
		for k, c := range a.groupBy {
			a.keys[k] = keyCol{vals: t[c : c+1]}
		}
		gids := a.gidBuf(1)
		a.groupIDs(gids, nil, nil)
		g = gids[0]
	}
	for i := range a.cols {
		c := &a.cols[i]
		if c.cnts != nil {
			c.cnts[g]++
		}
		if c.vals != nil {
			c.put(g, t[c.col])
		}
	}
}

// ObserveBatch folds every selected row of a batch into the accumulator.
// Grouped, the batch's key columns are canonicalized once and mapped to
// group ids in one pass, and each aggregate then folds its input column by
// group id; ungrouped, each aggregate reduces its whole vector at once.
func (a *Aggregator) ObserveBatch(b *Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	if len(a.groupBy) == 0 {
		for i := range a.cols {
			a.cols[i].foldVec(b, n)
		}
		return
	}
	typed, coded := true, false
	for k, g := range a.groupBy {
		v := &b.Vecs[g]
		a.keys[k] = canonKeys(v, b.Sel, n, &a.scr[k])
		typed = typed && a.keys[k].ints != nil
		coded = coded || v.Enc == storage.EncFoR
	}
	statGroupByBatches.Add(1)
	switch {
	case !typed:
		statGroupByBoxRows.Add(int64(n))
	case coded:
		statGroupByCodeRows.Add(int64(n))
		storage.RecordEncodedFold()
	default:
		statGroupByIntRows.Add(int64(n))
	}
	rows := b.Sel
	if rows == nil {
		rows = a.rowsUpTo(n)
	}
	gids := a.gidBuf(n)
	a.groupIDs(gids, b.Vecs, rows)
	for i := range a.cols {
		a.cols[i].foldRows(b, rows, gids)
	}
}

// ObserveCols folds every row of a columnar relation — the join→aggregate
// fusion path: a batch join's output feeds grouped aggregation without a
// row detour.
func (a *Aggregator) ObserveCols(c *ColRel) {
	if n := c.NumRows(); n > 0 {
		b := c.selView(a.rowsUpTo(n))
		a.ObserveBatch(&b)
	}
}

// MergeFrom folds another accumulator with identical groupBy/specs into
// this one: o's groups are looked up by key, and those new to a are added
// in o's order.
func (a *Aggregator) MergeFrom(o *Aggregator) {
	gids := a.gidBuf(o.n)
	if len(a.groupBy) > 0 {
		if need := a.n + o.n; need > len(a.slots)/2 {
			a.reserve(need)
		}
		for k := range a.keys {
			a.keys[k] = keyCol{vals: o.labels[k][:o.n]}
		}
		a.groupIDs(gids, nil, nil)
	} else {
		gids[0] = 0
	}
	for i := range a.cols {
		c, oc := &a.cols[i], &o.cols[i]
		for og, g := range gids {
			if c.cnts != nil {
				c.cnts[g] += oc.cnts[og]
			}
			if c.vals != nil {
				c.put(g, oc.vals[og])
			}
		}
	}
}

// Rel finishes the aggregation into the [groups..., aggs...] relation, one
// row per group in first-seen order, every row carved from one backing
// array. inputCols labels the input tuple layout (may be nil for
// positional g<i> labels).
func (a *Aggregator) Rel(inputCols []string) Rel {
	nk := len(a.groupBy)
	w := nk + len(a.cols)
	back := make([]types.Value, a.n*w)
	out := Rel{Cols: aggCols(inputCols, a.groupBy, a.cols), Tuples: make([][]types.Value, a.n)}
	for g := range out.Tuples {
		row := back[g*w : (g+1)*w : (g+1)*w]
		for k := range a.labels {
			row[k] = a.labels[k][g]
		}
		for i := range a.cols {
			row[nk+i] = a.cols[i].result(g)
		}
		out.Tuples[g] = row
	}
	return out
}

// result finishes group g's aggregate.
func (c *aggCol) result(g int) types.Value {
	switch c.fn {
	case AggCount:
		return types.NewInt64(c.cnts[g])
	case AggAvg:
		if c.cnts[g] == 0 {
			return types.Null()
		}
		return types.NewFloat64(c.vals[g].Float() / float64(c.cnts[g]))
	}
	return c.vals[g]
}

// put folds one input value into group g: SUM and AVG add it, MIN and MAX
// keep the extreme. A NULL input changes nothing.
func (c *aggCol) put(g int32, v types.Value) {
	if v.IsNull() {
		return
	}
	cur := &c.vals[g]
	switch c.fn {
	case AggMin:
		if cur.IsNull() || types.Compare(v, *cur) < 0 {
			*cur = v
		}
	case AggMax:
		if cur.IsNull() || types.Compare(v, *cur) > 0 {
			*cur = v
		}
	default:
		*cur = types.Add(*cur, v)
	}
}

// addInt is put for an int64 input: raw machine adds and compares once the
// state holds an Int64, put otherwise, so types.Add's kind rules hold.
func (c *aggCol) addInt(g int32, x int64) {
	cur := &c.vals[g]
	if cur.K != types.KindInt64 {
		c.put(g, types.NewInt64(x))
		return
	}
	switch c.fn {
	case AggMin:
		cur.I = min(cur.I, x)
	case AggMax:
		cur.I = max(cur.I, x)
	default:
		cur.I += x
	}
}

// addFloat is addInt for a float64 input.
func (c *aggCol) addFloat(g int32, x float64) {
	cur := &c.vals[g]
	if cur.K != types.KindFloat64 {
		c.put(g, types.NewFloat64(x))
		return
	}
	switch c.fn {
	case AggMin:
		if x < cur.F {
			cur.F = x
		}
	case AggMax:
		if x > cur.F {
			cur.F = x
		}
	default:
		cur.F += x
	}
}
