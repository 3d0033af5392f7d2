// Package cost implements Proteus' learned cost functions (§5.2.1,
// Table 1): per-storage-layout models predicting operator latency from
// cardinalities, column sizes and selectivities, plus layout-agnostic
// models for network requests, lock acquisition, update waits and commits.
// Models train continuously from observed latencies; until a model has
// seen enough observations, an analytic bootstrap keyed to the simulated
// hardware constants supplies cold-start estimates (the paper reports its
// cold-start cost model within ~11% RMSE).
package cost

import (
	"fmt"
	"math"
	"sync"
	"time"

	"proteus/internal/learn"
	"proteus/internal/storage"
)

// Op identifies a cost function from Table 1.
type Op uint8

// Cost function identifiers.
const (
	OpBulkLoad Op = iota
	OpWrite       // insert/update/delete
	OpPointRead
	OpScan
	OpSort
	OpJoin
	OpAggregate
	OpNetwork
	OpLock
	OpWaitUpdates
	OpCommit
	numOps
)

// String names the op.
func (o Op) String() string {
	names := [...]string{"bulkload", "write", "pointread", "scan", "sort",
		"join", "aggregate", "network", "lock", "wait", "commit"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// LayoutAware reports whether the op has per-layout models (Table 1's
// "storage layout-aware" section).
func (o Op) LayoutAware() bool {
	switch o {
	case OpNetwork, OpLock, OpWaitUpdates, OpCommit:
		return false
	}
	return true
}

// Variant refines ops with algorithm choices (Table 1 parentheses).
type Variant uint8

// Operator variants.
const (
	VariantDefault Variant = iota
	ScanSeq
	ScanSorted
	JoinHash
	AggHash
	// JoinHashBatch is the batch-native hash join (columnar build/probe,
	// runtime filter, optional spill); it learns its own model per layout
	// so observations never contaminate the row JoinHash curve.
	JoinHashBatch
)

// String names the variant.
func (v Variant) String() string {
	names := [...]string{"", "seq", "sorted", "hash", "agghash", "hashbatch"}
	if int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// featureDim is the fixed feature-vector width for every cost function.
// Vectors are zero-padded; the feature constructors below document each
// op's layout (mirroring the Arguments column of Table 1).
const featureDim = 6

// ScanFeatures: cardinality, input bytes/row, output bytes/row, selectivity.
func ScanFeatures(card int, inBytes, outBytes int, selectivity float64) []float64 {
	return ScanFeaturesEnc(card, inBytes, outBytes, selectivity, 0)
}

// ScanFeaturesEnc extends ScanFeatures with the fraction of the scanned
// bytes held in encoded column form (RLE/dictionary/FoR), letting the
// per-layout scan models learn how much code-operating kernels discount a
// scan — the signal the advisor weighs when choosing compressed layouts.
func ScanFeaturesEnc(card int, inBytes, outBytes int, selectivity, encodedFrac float64) []float64 {
	return []float64{float64(card), float64(inBytes), float64(outBytes), selectivity, encodedFrac, 0}
}

// WriteFeatures: cells accessed, bytes per row.
func WriteFeatures(cells, rowBytes int) []float64 {
	return []float64{float64(cells), float64(rowBytes), 0, 0, 0, 0}
}

// PointReadFeatures: cells read, bytes per row.
func PointReadFeatures(cells, rowBytes int) []float64 {
	return []float64{float64(cells), float64(rowBytes), 0, 0, 0, 0}
}

// BulkLoadFeatures: cardinality, bytes per row.
func BulkLoadFeatures(card, rowBytes int) []float64 {
	return []float64{float64(card), float64(rowBytes), 0, 0, 0, 0}
}

// SortFeatures: cardinality, bytes per row.
func SortFeatures(card, rowBytes int) []float64 {
	return []float64{float64(card), float64(rowBytes), 0, 0, 0, 0}
}

// JoinFeatures: left/right/output cardinalities, left+right bytes per row,
// join selectivity.
func JoinFeatures(lCard, rCard, outCard, rowBytes int, selectivity float64) []float64 {
	return []float64{float64(lCard), float64(rCard), float64(outCard), float64(rowBytes), selectivity, 0}
}

// JoinFeaturesBatch: the batch hash join's feature layout — build/probe/
// output cardinalities, bytes per row, probe selectivity after runtime
// filtering, and bytes spilled through the grace-join device. Unlike
// JoinFeatures it keys on build (not left/right) cardinality, since the
// batch join's cost is dominated by the build table and the post-filter
// probe stream, and it uses the sixth slot for spill volume.
func JoinFeaturesBatch(buildCard, probeCard, outCard, rowBytes int, probeSel float64, spillBytes int64) []float64 {
	return []float64{float64(buildCard), float64(probeCard), float64(outCard), float64(rowBytes), probeSel, float64(spillBytes)}
}

// AggFeatures: input and output cardinality, bytes per row.
func AggFeatures(inCard, outCard, rowBytes int) []float64 {
	return []float64{float64(inCard), float64(outCard), float64(rowBytes), 0, 0, 0}
}

// NetworkFeatures: source/destination CPU utilization, bytes sent/received.
func NetworkFeatures(srcCPU, dstCPU float64, sent, recv int) []float64 {
	return []float64{srcCPU, dstCPU, float64(sent), float64(recv), 0, 0}
}

// LockFeatures: partition contention (queued waiters, recent wait in µs).
func LockFeatures(waiters int, recentWait time.Duration) []float64 {
	return []float64{float64(waiters), float64(recentWait.Microseconds()), 0, 0, 0, 0}
}

// WaitFeatures: number of updates that must be applied.
func WaitFeatures(updates int) []float64 {
	return []float64{float64(updates), 0, 0, 0, 0, 0}
}

// CommitFeatures: partitions read, partitions written, sites involved.
func CommitFeatures(readParts, writeParts, sites int) []float64 {
	return []float64{float64(readParts), float64(writeParts), float64(sites), 0, 0, 0}
}

// layoutKey collapses a layout into the model key. Layout-aware cost
// functions are learned per storage tier, format and enabled optimizations
// (§5.2.1); the sort column's identity is irrelevant, only its presence.
type layoutKey struct {
	format     storage.Format
	tier       storage.Tier
	sorted     bool
	compressed bool
}

func keyOf(l storage.Layout) layoutKey {
	return layoutKey{l.Format, l.Tier, l.SortBy != storage.NoSort, l.Compressed}
}

type modelKey struct {
	op      Op
	variant Variant
	layout  layoutKey // zero for layout-agnostic ops
}

// predictor is the common interface over the learners.
type predictor interface {
	Observe(x []float64, y float64)
	Predict(x []float64) float64
	N() int
}

// Observation is one measured operator execution.
type Observation struct {
	Op       Op
	Variant  Variant
	Layout   storage.Layout // ignored for layout-agnostic ops
	Features []float64
	Latency  time.Duration
}

// Model is the full set of cost functions. Safe for concurrent use.
type Model struct {
	mu     sync.RWMutex
	models map[modelKey]predictor
	// warmup is the observation count below which the analytic bootstrap
	// answers predictions.
	warmup int
	seed   int64

	// Accuracy tracking: sum of squared error and of latency, per op.
	errSq  [numOps]float64
	latSum [numOps]float64
	obsN   [numOps]int
}

// NewModel creates an empty cost model.
func NewModel() *Model {
	return &Model{models: make(map[modelKey]predictor), warmup: 30}
}

// newPredictor picks the learner family per op: linear models for
// simple per-item costs, non-linear (derived-feature) regression for
// volume-driven operators, and a neural model for joins (§5.2.1 uses all
// three families). The volume operators regress over physically-derived
// products (cells scanned, bytes moved) rather than a generic polynomial
// expansion: workload feature distributions are often nearly constant,
// and a generic expansion fitted to a point generalizes badly when the
// advisor evaluates hypothetical layouts at shifted features.
func (m *Model) newPredictor(op Op) predictor {
	switch op {
	case OpJoin:
		m.seed++
		return learn.NewMLP(featureDim, 10, 0.01, m.seed)
	default:
		return learn.NewLinear(featureDim, 1e-3)
	}
}

// derive maps raw features onto the regression basis for volume-driven
// operators; other ops pass through. Applied identically when observing
// and predicting.
func derive(op Op, x []float64) []float64 {
	switch op {
	case OpScan:
		card, inB, outB, sel, enc := x[0], x[1], x[2], x[3], x[4]
		return []float64{card, card * inB, card * outB, card * inB * sel, card * inB * enc, 0}
	case OpBulkLoad, OpAggregate:
		card, rowB := x[0], x[1]
		return []float64{card, card * rowB, x[2], 0, 0, 0}
	case OpSort:
		card, rowB := x[0], x[1]
		lg := 1.0
		for c := card; c >= 2; c /= 2 {
			lg++
		}
		return []float64{card, card * rowB, card * lg, 0, 0, 0}
	}
	return x
}

func pad(x []float64) []float64 {
	if len(x) >= featureDim {
		return x[:featureDim]
	}
	out := make([]float64, featureDim)
	copy(out, x)
	return out
}

func (m *Model) modelFor(k modelKey) predictor {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.models[k]
	if !ok {
		p = m.newPredictor(k.op)
		m.models[k] = p
	}
	return p
}

func (m *Model) key(op Op, variant Variant, layout storage.Layout) modelKey {
	k := modelKey{op: op, variant: variant}
	if op.LayoutAware() {
		k.layout = keyOf(layout)
	}
	return k
}

// Observe trains the matching cost function with a measured latency and
// updates accuracy statistics (prediction error measured before training).
func (m *Model) Observe(obs Observation) {
	k := m.key(obs.Op, obs.Variant, obs.Layout)
	p := m.modelFor(k)
	x := derive(obs.Op, pad(obs.Features))
	actual := float64(obs.Latency.Microseconds())

	pred := m.predictWith(p, k, x)
	m.mu.Lock()
	m.errSq[obs.Op] += (pred - actual) * (pred - actual)
	m.latSum[obs.Op] += actual
	m.obsN[obs.Op]++
	m.mu.Unlock()

	p.Observe(x, actual)
}

// maxSaneUs bounds predictions: no single operator takes 100 s here.
// Ridge regressions over shifting feature distributions can briefly
// explode; out-of-range predictions fall back to the bootstrap.
const maxSaneUs = 1e8

// predictWith returns microseconds, falling back to the bootstrap during
// warm-up and when the learned model extrapolates outside sane bounds.
// x is the raw (underived) feature vector.
func (m *Model) predictWith(p predictor, k modelKey, x []float64) float64 {
	if p.N() < m.warmup {
		return bootstrap(k, x)
	}
	y := p.Predict(derive(k.op, x))
	if math.IsNaN(y) || y < 0 || y > maxSaneUs {
		return bootstrap(k, x)
	}
	return y
}

// Predict estimates an operator's latency.
func (m *Model) Predict(op Op, variant Variant, layout storage.Layout, features []float64) time.Duration {
	k := m.key(op, variant, layout)
	p := m.modelFor(k)
	us := m.predictWith(p, k, pad(features))
	return time.Duration(us * float64(time.Microsecond))
}

// Warm reports whether the matching model has enough observations to
// answer from learned state rather than the bootstrap.
func (m *Model) Warm(op Op, variant Variant, layout storage.Layout) bool {
	return m.modelFor(m.key(op, variant, layout)).N() >= m.warmup
}

// PredictBootstrap returns the analytic cold-start estimate, bypassing any
// learned model. Comparisons across layouts must not mix a learned
// estimate for one layout with a bootstrap for another (their calibrations
// differ); callers use this to keep both sides on the bootstrap whenever
// either side's model is cold.
func (m *Model) PredictBootstrap(op Op, variant Variant, layout storage.Layout, features []float64) time.Duration {
	us := bootstrap(m.key(op, variant, layout), pad(features))
	return time.Duration(us * float64(time.Microsecond))
}

// PredictPair estimates one operator under two alternative layouts from a
// consistent source: learned models when both are warm AND both produce
// valid (finite, non-negative) predictions; the bootstrap otherwise. A
// one-sided fallback would compare incompatible calibrations.
func (m *Model) PredictPair(op Op, variant Variant, a, b storage.Layout, features []float64) (time.Duration, time.Duration) {
	x := pad(features)
	ka, kb := m.key(op, variant, a), m.key(op, variant, b)
	pa, pb := m.modelFor(ka), m.modelFor(kb)
	if pa.N() >= m.warmup && pb.N() >= m.warmup {
		dx := derive(op, x)
		ya, yb := pa.Predict(dx), pb.Predict(dx)
		if !math.IsNaN(ya) && !math.IsNaN(yb) && ya >= 0 && yb >= 0 && ya <= maxSaneUs && yb <= maxSaneUs {
			return time.Duration(ya * float64(time.Microsecond)), time.Duration(yb * float64(time.Microsecond))
		}
	}
	return time.Duration(bootstrap(ka, x) * float64(time.Microsecond)),
		time.Duration(bootstrap(kb, x) * float64(time.Microsecond))
}

// Accuracy reports the relative RMSE per op: RMSE divided by mean observed
// latency (the metric of §6.3.6).
func (m *Model) Accuracy() map[Op]float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[Op]float64)
	for op := Op(0); op < numOps; op++ {
		if m.obsN[op] == 0 {
			continue
		}
		rmse := math.Sqrt(m.errSq[op] / float64(m.obsN[op]))
		mean := m.latSum[op] / float64(m.obsN[op])
		if mean > 0 {
			out[op] = rmse / mean
		}
	}
	return out
}

// Observations reports the total training observations per op.
func (m *Model) Observations(op Op) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.obsN[op]
}
