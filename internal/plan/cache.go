// Package plan implements Proteus' physical execution planning (§5.3.1):
// binding query-tree leaves to concrete partition replicas at chosen
// sites, selecting physical operators (join algorithms, aggregation
// strategies) greedily by learned cost, inserting distributed coordination
// nodes, and reusing previous plans and bucketed operator decisions to cut
// planning latency (§5.3.3).
package plan

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"proteus/internal/metadata"
)

// Epoch is a monotonically increasing storage-layout version. Every layout
// change bumps it, invalidating cached whole plans ("a single change
// invalidates a plan", §5.3.3).
type Epoch struct{ v atomic.Uint64 }

// Bump advances the epoch after a layout change.
func (e *Epoch) Bump() { e.v.Add(1) }

// Current reads the epoch.
func (e *Epoch) Current() uint64 { return e.v.Load() }

// maxCachedPlans bounds the plan cache. Fingerprints carry predicate
// constants, so a client sweeping a constant would otherwise grow the map
// without limit within one epoch; at the cap the cache is dropped whole,
// exactly as an epoch change drops it.
const maxCachedPlans = 1024

// PlanCache caches whole physical plans keyed by request fingerprint,
// valid for a single layout epoch.
type PlanCache struct {
	mu    sync.Mutex
	epoch uint64
	plans map[string]any
	hits  int64
	miss  int64
}

// NewPlanCache creates an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[string]any)}
}

// Get returns the cached plan for the fingerprint if it was stored in the
// same layout epoch.
func (c *PlanCache) Get(fingerprint string, epoch uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		c.plans = make(map[string]any)
		c.epoch = epoch
	}
	p, ok := c.plans[fingerprint]
	if ok {
		c.hits++
	} else {
		c.miss++
	}
	return p, ok
}

// Put stores a plan under the fingerprint for the epoch.
func (c *PlanCache) Put(fingerprint string, epoch uint64, plan any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || len(c.plans) >= maxCachedPlans {
		c.plans = make(map[string]any)
		c.epoch = epoch
	}
	c.plans[fingerprint] = plan
}

// Stats reports hits and misses.
func (c *PlanCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// DecisionCache reuses individual operator decisions across plans: the
// input arguments for each decision are bucketed (log scale) and the
// decision made under those arguments is cached (§5.3.3). Unlike the plan
// cache it survives layout changes — decisions carry their own layout
// arguments in the key.
type DecisionCache struct {
	mu        sync.Mutex
	decisions map[string]any
	hits      int64
	miss      int64
}

// NewDecisionCache creates an empty decision cache.
func NewDecisionCache() *DecisionCache {
	return &DecisionCache{decisions: make(map[string]any)}
}

// Bucket quantizes a magnitude onto a log2 scale so similar inputs share
// cache entries.
func Bucket(v float64) int {
	if v <= 0 {
		return 0
	}
	return int(math.Round(math.Log2(v + 1)))
}

// Key builds a decision-cache key from a decision kind, discrete tags and
// bucketed magnitudes: "kind|tag|...|bucket|...".
func Key(kind string, tags []string, magnitudes []float64) string {
	key := append(make([]byte, 0, 64), kind...)
	for _, t := range tags {
		key = append(key, '|')
		key = append(key, t...)
	}
	return string(appendBuckets(key, magnitudes...))
}

// appendBuckets appends Key's "|bucket" suffix for each magnitude.
func appendBuckets(key []byte, magnitudes ...float64) []byte {
	for _, m := range magnitudes {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(Bucket(m)), 10)
	}
	return key
}

// appendCopiesKey starts a Key whose tags are the candidate copies, each
// rendered "site@layout" — the same bytes Key would produce from formatted
// tags, built without allocating: copy choices are keyed once per point
// read and per scanned partition.
func appendCopiesKey(key []byte, kind string, copies []metadata.Replica) []byte {
	key = append(key, kind...)
	for _, c := range copies {
		key = append(key, '|')
		key = strconv.AppendInt(key, int64(c.Site), 10)
		key = append(key, '@')
		key = c.Layout.AppendTo(key)
	}
	return key
}

// Lookup returns the cached decision.
func (c *DecisionCache) Lookup(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[key]
	return d, c.count(ok)
}

// lookupBytes is Lookup for a key still in its builder's buffer; indexing
// with the conversion in place does not copy the bytes.
func (c *DecisionCache) lookupBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.decisions[string(key)]
	return d, c.count(ok)
}

func (c *DecisionCache) count(hit bool) bool {
	if hit {
		c.hits++
	} else {
		c.miss++
	}
	return hit
}

// Store records a decision.
func (c *DecisionCache) Store(key string, decision any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decisions[key] = decision
}

// Invalidate clears every cached decision (used when the cost model shifts
// substantially).
func (c *DecisionCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.decisions = make(map[string]any)
}

// Stats reports hits and misses.
func (c *DecisionCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}
