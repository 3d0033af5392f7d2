package exec

import (
	"proteus/internal/partition"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// DefaultMorselRows is the scheduling quantum of the parallel scan
// executor: each morsel covers roughly this many rows, small enough that
// work spreads evenly across a site's scan pool and a LIMIT or cancelled
// query stops quickly, large enough that per-morsel overhead stays noise.
const DefaultMorselRows = 1024

// DefaultBatchRows bounds one result batch flowing from a scan worker to
// the coordinator, which bounds the executor's in-flight memory.
const DefaultBatchRows = 256

// LocalPred translates a predicate over table-global columns into a
// partition's local column space, keeping only the conjuncts the bounds
// cover. ok reports whether every conjunct was pushed.
func LocalPred(b partition.Bounds, pred storage.Pred) (storage.Pred, bool) {
	out := make(storage.Pred, 0, len(pred))
	all := true
	for _, c := range pred {
		if !b.ContainsCol(c.Col) {
			all = false
			continue
		}
		out = append(out, storage.Cond{Col: b.LocalCol(c.Col), Op: c.Op, Val: c.Val})
	}
	return out, all
}

// Aggregator accumulates grouped aggregates one tuple at a time. Scan
// workers each own one, so partial aggregation happens inside the morsel
// scan without materializing tuples; worker states merge into one per-site
// partial relation before shipping to the coordinator.
type Aggregator struct {
	groupBy    []int
	specs      []AggSpec
	groups     map[uint64][]*groupEntry
	order      []*groupEntry
	keyScratch []types.Value // reused per-row key tuple for ObserveBatch

	// Single-key fast-path state (batchagg.go): typed key → entry indexes
	// that bypass per-row boxing. Entries are shared with the canonical
	// groups table — the typed maps only memoize entry() results — so the
	// generic path, MergeFrom and Rel see one consistent group set.
	intGroups  map[int64]*groupEntry
	strGroups  map[string]*groupEntry
	entScratch []*groupEntry
	rowScratch []int32
	dictEnts   []*groupEntry
}

// NewAggregator creates an accumulator for the groupBy positions and specs
// (both over the input tuple layout, as in HashAggregate).
func NewAggregator(groupBy []int, specs []AggSpec) *Aggregator {
	return &Aggregator{groupBy: groupBy, specs: specs, groups: map[uint64][]*groupEntry{}}
}

func (a *Aggregator) entry(key []types.Value) *groupEntry {
	h := joinKey(key, a.groupBy)
	for _, cand := range a.groups[h] {
		if keysEqual(key, cand.key, a.groupBy, a.groupBy) {
			return cand
		}
	}
	k := make([]types.Value, len(key))
	copy(k, key)
	ge := &groupEntry{key: k, state: newAggState(len(a.specs))}
	a.groups[h] = append(a.groups[h], ge)
	a.order = append(a.order, ge)
	return ge
}

// Observe folds one input tuple into its group.
func (a *Aggregator) Observe(t []types.Value) {
	a.entry(t).state.observe(t, a.specs)
}

// MergeFrom folds another accumulator with identical groupBy/specs into
// this one.
func (a *Aggregator) MergeFrom(o *Aggregator) {
	for _, ge := range o.order {
		a.entry(ge.key).state.merge(ge.state)
	}
}

// Rows reports the number of groups accumulated so far.
func (a *Aggregator) Rows() int { return len(a.order) }

// Rel finishes the aggregation into the [groups..., aggs...] relation
// HashAggregate would produce over the same input. inputCols labels the
// input tuple layout (may be nil for positional g%d labels).
func (a *Aggregator) Rel(inputCols []string) Rel {
	order := a.order
	if len(a.groupBy) == 0 && len(order) == 0 {
		// SQL aggregate semantics: a global aggregate over zero rows still
		// produces one row.
		order = []*groupEntry{{state: newAggState(len(a.specs))}}
	}
	out := Rel{Cols: aggCols(Rel{Cols: inputCols}, a.groupBy, a.specs)}
	for _, ge := range order {
		row := make([]types.Value, 0, len(a.groupBy)+len(a.specs))
		for _, g := range a.groupBy {
			row = append(row, ge.key[g])
		}
		row = append(row, ge.state.finish(a.specs)...)
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// merge folds another state accumulated with the same specs into s.
func (s *aggState) merge(o *aggState) {
	for i := range s.counts {
		s.counts[i] += o.counts[i]
		s.sums[i] = types.Add(s.sums[i], o.sums[i])
		if !o.mins[i].IsNull() && (s.mins[i].IsNull() || types.Compare(o.mins[i], s.mins[i]) < 0) {
			s.mins[i] = o.mins[i]
		}
		if !o.maxs[i].IsNull() && (s.maxs[i].IsNull() || types.Compare(o.maxs[i], s.maxs[i]) > 0) {
			s.maxs[i] = o.maxs[i]
		}
	}
}
