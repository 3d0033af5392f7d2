package exec

import (
	"math"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// Aggregator is the group-by table. Every aggregate the engine computes
// accumulates in one: each scan worker's partial, their per-site merge, and
// the coordinator's, into which the sites' partials merge (MergeFrom).
//
// Keys follow JoinTable's hash contract. Each key column is canonicalized
// by canonKeys and hashed through hashKey/hashValue, and several key
// columns mix their hashes, so keys that compare types.Equal (NULL with
// NULL, 1 with 1.0, a FoR code with the plain value it encodes) land in one
// group whichever vector or tuple they arrive in. A key maps to a dense
// group id, in first-seen order, through an open-addressed slot array kept
// at most half full; each group's first-seen key values are its output
// labels. A single typed key column is looked up through a window first,
// key - lo -> group id + 1, which the table keeps from batch to batch
// (windowIDs): only a key's first sighting reaches the slot array. Aggregate
// state lives in one column per spec indexed by group id (aggCol), so a
// group costs no allocation of its own. An ungrouped aggregate is group 0,
// which exists before any row arrives: SQL gives a global aggregate over no
// rows one row.
type Aggregator struct {
	groupBy []int
	cols    []aggCol
	n       int             // groups
	size    int             // groups the state columns have room for
	slots   []int32         // group id + 1 per slot, 0 when free
	labels  [][]types.Value // key column -> group id -> first-seen key value

	keys []keyCol     // the key columns of the rows being grouped
	scr  []keyScratch // canonKeys buffers, one per key column
	gids []int32      // the group of each row being grouped
	win  []int32      // key - wlo -> group id + 1, 0 for a key not looked up through it yet
	wlo  int64
	fold foldScratch // the typed folds' buffers
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
	a.size = size
	for i := range a.cols {
		a.cols[i].grow(size)
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

// hashIDs sets gids[i] to the group of key row i of a.keys through the
// hash table, adding a group for every key not seen before. A new group's
// label is its boxed key, or for a typed key column row rows[i] of that
// column's vector in vecs.
func (a *Aggregator) hashIDs(gids []int32, vecs []storage.Vec, rows []int32) {
	for i := range gids {
		gids[i] = a.groupOf(i, vecs, rows)
	}
}

// groupOf returns the group of key row i of a.keys through the hash table,
// adding one when the key is new.
func (a *Aggregator) groupOf(i int, vecs []storage.Vec, rows []int32) int32 {
	if a.n == len(a.slots)/2 {
		a.reserve(max(16, 4*a.n))
	}
	h := a.keys[0].hash(i)
	for _, kc := range a.keys[1:] {
		h = mixKeys(h, kc.hash(i))
	}
	mask := uint64(len(a.slots) - 1)
	s := h & mask
	for ; a.slots[s] != 0; s = (s + 1) & mask {
		if g := a.slots[s] - 1; a.sameKey(g, i) {
			return g
		}
	}
	g := a.add(s)
	for k, kc := range a.keys {
		if kc.vals != nil {
			a.labels[k][g] = kc.vals[i]
		} else {
			a.labels[k][g] = vecs[a.groupBy[k]].Value(int(rows[i]))
		}
	}
	return g
}

// groupOfInt is groupOf for a single typed key column: the group of key x,
// added with label row r of v when x is new.
func (a *Aggregator) groupOfInt(x int64, v *storage.Vec, r int32) int32 {
	if a.n == len(a.slots)/2 {
		a.reserve(max(16, 4*a.n))
	}
	mask := uint64(len(a.slots) - 1)
	s := hashKey(x) & mask
	for ; a.slots[s] != 0; s = (s + 1) & mask {
		g := a.slots[s] - 1
		if y, ok := canonInt(a.labels[0][g]); ok && y == x {
			return g
		}
	}
	g := a.add(s)
	a.labels[0][g] = v.Value(int(r))
	return g
}

// add makes a new group in free slot s.
func (a *Aggregator) add(s uint64) int32 {
	g := int32(a.n)
	a.n++
	a.slots[s] = g + 1
	return g
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

// maxWindow bounds the group-id window: 4 MiB of slots.
const maxWindow = 1 << 20

// windowIDs sets gids[j] to the group of key base + xs[at[j]] — a single
// typed key column, plain (base 0) or FoR codes over their frame — through
// the window, a new group taking its label from row rows[j] of v. A key
// outside the window widens it (widen) when the batch's keys allow; once
// they do not, keys outside it go to the hash table. A key's first
// sighting in the window goes to the hash table too, in row order, so
// groups keep their first-seen order and the table stays the only group
// directory: the window only remembers its answers.
func windowIDs[T int64 | uint32](a *Aggregator, gids []int32, xs []T, base int64, at, rows []int32, v *storage.Vec) {
	lo, win := a.wlo, a.win
	hashed := false // the batch's keys do not fit a window
	for j, r := range at {
		x := base + int64(xs[r])
		d := uint64(x) - uint64(lo)
		if d >= uint64(len(win)) {
			if hashed || !widen(a, xs, base, at[j:]) {
				hashed = true
				gids[j] = a.groupOfInt(x, v, rows[j])
				continue
			}
			lo, win = a.wlo, a.win
			d = uint64(x) - uint64(lo)
		}
		w := win[d]
		if w == 0 {
			w = a.groupOfInt(x, v, rows[j]) + 1
			win[d] = w
		}
		gids[j] = w - 1
	}
}

// widen grows the window to cover the keys base + xs[at[i]] besides the
// ones it covers, and reports whether it did. It declines when the union
// would span more than four slots per group the table could hold after the
// batch (its groups plus the rows left), or more than maxWindow: the window
// then costs at most 16 bytes a group, less than the hash table's slots
// and labels. Spans are taken in uint64, which holds max - min exactly for
// any two int64s; a window grown at least twofold makes growing it through
// keys that climb batch by batch cost linear time.
func widen[T int64 | uint32](a *Aggregator, xs []T, base int64, at []int32) bool {
	lo := base + int64(xs[at[0]])
	hi := lo
	for _, r := range at {
		x := base + int64(xs[r])
		lo, hi = min(lo, x), max(hi, x)
	}
	if len(a.win) > 0 {
		lo, hi = min(lo, a.wlo), max(hi, a.wlo+int64(len(a.win)-1))
	}
	span := uint64(hi) - uint64(lo)
	limit := min(uint64(maxWindow), 4*uint64(a.n+len(at)))
	if span >= limit {
		return false
	}
	// At least the union, twice the old window where the limit allows,
	// and never past the largest key, so the window does not wrap.
	n := max(span+1, min(2*uint64(len(a.win)), limit))
	if room := uint64(math.MaxInt64) - uint64(lo); n-1 > room {
		n = room + 1
	}
	win := make([]int32, n)
	if len(a.win) > 0 {
		copy(win[uint64(a.wlo)-uint64(lo):], a.win)
	}
	a.win, a.wlo = win, lo
	return true
}

// gidBuf returns the group-id scratch sized for n rows.
func (a *Aggregator) gidBuf(n int) []int32 {
	if cap(a.gids) < n {
		a.gids = make([]int32, n)
	}
	return a.gids[:n]
}

// seqRows holds the rows 0, 1, 2, ... of a batch without a selection,
// shared read-only by every aggregator for batches up to a morsel long.
var seqRows = func() []int32 {
	s := make([]int32, DefaultMorselRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// rowsUpTo returns the rows 0..n-1.
func rowsUpTo(n int) []int32 {
	if n <= len(seqRows) {
		return seqRows[:n]
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// Observe folds one input tuple into its group, boxed: keys through the
// hash table, values through put, whose types.Add and types.Compare are
// the reference the typed folds of ObserveBatch are held to.
func (a *Aggregator) Observe(t []types.Value) {
	g := int32(0)
	if len(a.groupBy) > 0 {
		for k, c := range a.groupBy {
			a.keys[k] = keyCol{vals: t[c : c+1]}
		}
		g = a.groupOf(0, nil, nil)
	}
	for i := range a.cols {
		c := &a.cols[i]
		switch {
		case !c.counts():
			c.put(g, t[c.col], a.size)
		case c.fn == AggCount || !t[c.col].IsNull():
			c.cnts[g]++
		}
	}
}

// groupStrip is how many rows of a grouped batch are mapped to groups and
// folded at a time: the group ids of a strip stay in L1 between the two
// passes, and an aggregator's scratch is a strip long whatever the batch
// length.
const groupStrip = 1024

// ObserveBatch folds every selected row of a batch into the accumulator.
// Grouped, the batch's rows are mapped to group ids a strip at a time — a
// single int-family or FoR key column through the window on its raw
// values or codes, anything else canonicalized by canonKeys and hashed —
// and each aggregate then folds the strip's input by group id; ungrouped,
// each aggregate reduces its whole vector at once.
func (a *Aggregator) ObserveBatch(b *Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	all := b.Sel
	if all == nil {
		all = rowsUpTo(n)
	}
	if len(a.groupBy) == 0 {
		for i := range a.cols {
			a.cols[i].fold(b, all, nil, a.size, &a.fold)
		}
		return
	}
	statGroupByBatches.Add(1)
	v := &b.Vecs[a.groupBy[0]]
	raw := len(a.groupBy) == 1 && v.Null == nil
	switch {
	case raw && v.Enc == storage.EncFoR:
		statGroupByCodeRows.Add(int64(n))
		storage.RecordEncodedFold()
	case raw && v.Enc == storage.EncNone && intFamilyKind(v.Kind):
		statGroupByIntRows.Add(int64(n))
	default:
		raw = false
	}
	for lo := 0; lo < len(all); lo += groupStrip {
		rows := all[lo:min(lo+groupStrip, len(all))]
		gids := a.gidBuf(len(rows))
		switch {
		case raw && v.Enc == storage.EncFoR:
			windowIDs(a, gids, v.Codes, v.Base, rows, rows, v)
		case raw:
			windowIDs(a, gids, v.I64, 0, rows, rows, v)
		default:
			a.canonIDs(b, gids, rows)
		}
		for i := range a.cols {
			a.cols[i].fold(b, rows, gids, a.size, &a.fold)
		}
	}
}

// canonIDs maps the rows of a batch whose keys the window cannot read raw
// to groups: several key columns, or one holding NULLs, floats, strings,
// dictionary codes or runs. canonKeys canonicalizes each column's rows
// once; a single column that comes out typed (integral floats) still takes
// the window, the rest the hash table.
func (a *Aggregator) canonIDs(b *Batch, gids, rows []int32) {
	n := len(rows)
	typed, coded := true, false
	for k, g := range a.groupBy {
		v := &b.Vecs[g]
		a.keys[k] = canonKeys(v, rows, n, &a.scr[k])
		typed = typed && a.keys[k].ints != nil
		coded = coded || v.Enc == storage.EncFoR
	}
	switch {
	case !typed:
		statGroupByBoxRows.Add(int64(n))
	case coded:
		statGroupByCodeRows.Add(int64(n))
		storage.RecordEncodedFold()
	default:
		statGroupByIntRows.Add(int64(n))
	}
	if ints := a.keys[0].ints; len(a.keys) == 1 && ints != nil {
		windowIDs(a, gids, ints, 0, rowsUpTo(n), rows, &b.Vecs[a.groupBy[0]])
		return
	}
	a.hashIDs(gids, b.Vecs, rows)
}

// intFamilyKind reports the kinds whose plain vectors carry int64 payloads
// that canonicalize as themselves.
func intFamilyKind(k types.Kind) bool {
	return k == types.KindInt64 || k == types.KindTime || k == types.KindBool
}

// ObserveCols folds every row of a columnar relation — the join→aggregate
// fusion path: a batch join's output feeds grouped aggregation without a
// row detour.
func (a *Aggregator) ObserveCols(c *ColRel) {
	if n := c.NumRows(); n > 0 {
		b := c.selView(rowsUpTo(n))
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
		a.hashIDs(gids, nil, nil)
	} else {
		gids[0] = 0
	}
	for i := range a.cols {
		a.cols[i].merge(&o.cols[i], gids, a.size)
	}
}

// Groups reports the number of groups.
func (a *Aggregator) Groups() int { return a.n }

// PartialBytes prices the accumulator as a partial shipped between sites:
// its groups times the average width, over up to 32 groups, of a row
// holding the group's key and each aggregate's state, AVG's as its running
// sum and an int64 count (Rel.RowBytes over those rows).
func (a *Aggregator) PartialBytes() int {
	sample := min(a.n, 32)
	if sample == 0 {
		return 0
	}
	n := 0
	for g := range sample {
		for _, l := range a.labels {
			n += types.VarWidth(l[g])
		}
		for i := range a.cols {
			c := &a.cols[i]
			if !c.counts() {
				n += types.VarWidth(c.value(g))
			}
			if c.counts() || c.fn == AggAvg {
				n += 8
			}
		}
	}
	return a.n * (n / sample)
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
