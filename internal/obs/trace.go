package obs

import (
	"sync"
	"time"
)

// Decision is one entry in the adaptive storage advisor's decision trace
// (§5.3.2): which partition was considered, why a planning pass considered
// it, the chosen change and its evaluated net benefit, and how long
// planning and execution took. Executed=false entries record chosen-but-failed
// changes (the layout operator returned an error).
type Decision struct {
	Seq       int64
	At        time.Time
	Partition uint64
	Trigger   string // the pass's reason: "oltp-plan", "olap-plan", "predictive", "capacity" or "merge"
	Kind      string // candidate kind: "format", "tier", "split-h", ...
	Layout    string // resulting layout for layout changes
	Net       float64
	PlanTime  time.Duration
	ExecTime  time.Duration
	Executed  bool
	Err       string
}

// DecisionTrace is an append-only, bounded trace of advisor decisions.
// Appends assign monotonically increasing sequence numbers; the ring
// retains the most recent entries. Safe for concurrent use.
type DecisionTrace struct {
	mu    sync.Mutex
	seq   int64
	ring  []Decision
	next  int
	count int // valid entries in ring, <= len(ring)
}

// NewDecisionTrace creates a trace retaining capacity entries.
func NewDecisionTrace(capacity int) *DecisionTrace {
	if capacity <= 0 {
		capacity = 1024
	}
	return &DecisionTrace{ring: make([]Decision, capacity)}
}

// Add appends a decision, stamping its sequence number, and returns it.
func (t *DecisionTrace) Add(d Decision) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	d.Seq = t.seq
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	return d.Seq
}

// Total reports how many decisions were ever traced.
func (t *DecisionTrace) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Recent returns up to n of the most recent decisions in arrival order
// (oldest first). n <= 0 returns everything retained.
func (t *DecisionTrace) Recent(n int) []Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.count {
		n = t.count
	}
	out := make([]Decision, 0, n)
	start := t.next - n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}
