package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"proteus/internal/faults"
)

// fakeClock is a manually advanced clock; with WithClock installed the
// controller has no background grant pass, so every refill and grant is
// driven explicitly by the test — fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestController(t *testing.T, cfg Config, clk *fakeClock) *Controller {
	t.Helper()
	c := New(cfg, nil, WithClock(clk.now))
	t.Cleanup(c.Close)
	return c
}

// admitAsync runs Admit in a goroutine and returns the result channel.
func admitAsync(c *Controller, ctx context.Context, tenant string, pri Priority) <-chan error {
	out := make(chan error, 1)
	go func() { out <- c.Admit(ctx, tenant, pri) }()
	return out
}

// waitDepth polls until the class's queue holds n waiters.
func waitDepth(t *testing.T, c *Controller, pri Priority, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.QueueDepth(pri) != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue %v never reached depth %d (at %d)", pri, n, c.QueueDepth(pri))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestTokenBucketRefillMath(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 10, Burst: 5},
	}, clk)
	ctx := context.Background()

	// The bucket starts full: exactly Burst immediate admissions.
	for i := 0; i < 5; i++ {
		if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
			t.Fatalf("admit %d within burst: %v", i, err)
		}
	}
	if got := c.Tokens("a"); got != 0 {
		t.Fatalf("tokens after draining burst = %v, want 0", got)
	}

	// Refill is Rate per second: 250ms at 10/s accrues 2.5 tokens.
	clk.advance(250 * time.Millisecond)
	if got := c.Tokens("a"); got < 2.4999 || got > 2.5001 {
		t.Fatalf("tokens after 250ms = %v, want 2.5", got)
	}
	if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
		t.Fatalf("admit with 2.5 tokens: %v", err)
	}
	if got := c.Tokens("a"); got < 1.4999 || got > 1.5001 {
		t.Fatalf("tokens after one grant = %v, want 1.5", got)
	}

	// Refill never exceeds Burst.
	clk.advance(time.Hour)
	if got := c.Tokens("a"); got != 5 {
		t.Fatalf("tokens after long idle = %v, want burst 5", got)
	}
}

func TestQueueGrantOnTick(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 10, Burst: 1},
		MaxWait: time.Hour,
	}, clk)
	ctx := context.Background()

	if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	res := admitAsync(c, ctx, "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1)

	// No tokens yet: a tick must not grant.
	c.Tick()
	if c.QueueDepth(PriorityOLTP) != 1 {
		t.Fatal("tick granted without tokens")
	}

	clk.advance(100 * time.Millisecond) // exactly one token
	c.Tick()
	if err := <-res; err != nil {
		t.Fatalf("queued admit after refill: %v", err)
	}
	if got := c.Tokens("a"); got != 0 {
		t.Fatalf("tokens after queued grant = %v, want 0", got)
	}
}

func TestShedOnFullQueueTypedError(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:   TokenBucket,
		Default:  Limits{Rate: 10, Burst: 1},
		MaxQueue: 2,
		MaxWait:  time.Hour,
	}, clk)
	ctx := context.Background()

	if err := c.Admit(ctx, "a", PriorityOLAP); err != nil {
		t.Fatal(err)
	}
	r1 := admitAsync(c, ctx, "a", PriorityOLAP)
	r2 := admitAsync(c, ctx, "a", PriorityOLAP)
	waitDepth(t, c, PriorityOLAP, 2)

	// Queue full: the third waiter sheds immediately, typed.
	err := c.Admit(ctx, "a", PriorityOLAP)
	if !errors.Is(err, faults.ErrOverload) {
		t.Fatalf("full-queue shed = %v, want ErrOverload", err)
	}
	var oe *faults.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("shed error %T lacks *faults.OverloadError", err)
	}
	if oe.Reason != "queue" {
		t.Fatalf("shed reason = %q, want queue", oe.Reason)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("shed RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if d, ok := faults.RetryAfterHint(err); !ok || d != oe.RetryAfter {
		t.Fatalf("RetryAfterHint = (%v,%v), want (%v,true)", d, ok, oe.RetryAfter)
	}

	// The queued pair still drains as tokens refill; with Burst 1 each
	// grant pass hands out at most one token, so two passes drain both.
	// The admitAsync goroutines race to enqueue, so which of r1/r2 sits at
	// the queue head is scheduler-dependent — drain whichever resolves.
	clk.advance(time.Second)
	c.Tick()
	select {
	case err := <-r1:
		if err != nil {
			t.Fatalf("first queued admit: %v", err)
		}
		r1 = nil
	case err := <-r2:
		if err != nil {
			t.Fatalf("first queued admit: %v", err)
		}
		r2 = nil
	}
	clk.advance(time.Second)
	c.Tick()
	rest := r1
	if rest == nil {
		rest = r2
	}
	if err := <-rest; err != nil {
		t.Fatalf("second queued admit: %v", err)
	}
}

func TestMaxWaitShed(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 0.001, Burst: 1}, // effectively never refills
		MaxWait: 50 * time.Millisecond,
	}, clk)
	ctx := context.Background()

	if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	res := admitAsync(c, ctx, "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1)

	clk.advance(51 * time.Millisecond)
	c.Tick()
	err := <-res
	var oe *faults.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "wait" {
		t.Fatalf("overdue waiter got %v, want OverloadError(wait)", err)
	}
}

// TestPriorityOLTPOverOLAP queues an OLAP request first and an OLTP
// request second; with one token available the OLTP request must win —
// commits preempt analytical work at the admission gate.
func TestPriorityOLTPOverOLAP(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 10, Burst: 1},
		MaxWait: time.Hour,
	}, clk)
	ctx := context.Background()

	if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	olap := admitAsync(c, ctx, "a", PriorityOLAP)
	waitDepth(t, c, PriorityOLAP, 1)
	oltp := admitAsync(c, ctx, "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1)

	clk.advance(100 * time.Millisecond) // exactly one token
	c.Tick()
	if err := <-oltp; err != nil {
		t.Fatalf("OLTP admit with one token: %v", err)
	}
	if c.QueueDepth(PriorityOLAP) != 1 {
		t.Fatal("OLAP waiter granted ahead of OLTP")
	}
	select {
	case err := <-olap:
		t.Fatalf("OLAP resolved early: %v", err)
	default:
	}

	clk.advance(100 * time.Millisecond)
	c.Tick()
	if err := <-olap; err != nil {
		t.Fatalf("OLAP admit after OLTP: %v", err)
	}
}

// TestTwoTenantFairness checks isolation: one tenant exhausting its
// bucket neither blocks nor depletes the other's, and queued waiters of
// both tenants drain from their own refills.
func TestTwoTenantFairness(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 10, Burst: 2},
		Tenants: map[string]Limits{"b": {Rate: 20, Burst: 2}},
		MaxWait: time.Hour,
	}, clk)
	ctx := context.Background()

	// Tenant a drains its bucket; tenant b is unaffected.
	for i := 0; i < 2; i++ {
		if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := c.Admit(ctx, "b", PriorityOLTP); err != nil {
			t.Fatalf("tenant b admit %d while a exhausted: %v", i, err)
		}
	}

	// Both queue one waiter; b refills twice as fast but one 100ms step
	// yields a token for each, so both drain on the same tick.
	ra := admitAsync(c, ctx, "a", PriorityOLTP)
	rb := admitAsync(c, ctx, "b", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 2)
	clk.advance(100 * time.Millisecond)
	c.Tick()
	if err := <-ra; err != nil {
		t.Fatalf("tenant a queued admit: %v", err)
	}
	if err := <-rb; err != nil {
		t.Fatalf("tenant b queued admit: %v", err)
	}
}

func TestBacklogGuardShedsWritesOnly(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:           TokenBucket,
		Default:          Limits{Rate: 1000, Burst: 100},
		MaxCommitBacklog: 8,
	}, clk)
	ctx := context.Background()

	c.UpdateState(ClusterState{At: clk.now(), MaxCommitBacklog: 20})
	err := c.Admit(ctx, "a", PriorityOLTP)
	var oe *faults.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "backlog" {
		t.Fatalf("OLTP admit over backlog = %v, want OverloadError(backlog)", err)
	}
	// Reads don't feed the commit queues; the guard ignores them.
	if err := c.Admit(ctx, "a", PriorityOLAP); err != nil {
		t.Fatalf("OLAP admit over backlog: %v", err)
	}
	c.UpdateState(ClusterState{At: clk.now(), MaxCommitBacklog: 2})
	if err := c.Admit(ctx, "a", PriorityOLTP); err != nil {
		t.Fatalf("OLTP admit under backlog bound: %v", err)
	}
}

func TestCancelWhileQueuedKeepsTokens(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 10, Burst: 1},
		MaxWait: time.Hour,
	}, clk)

	if err := c.Admit(context.Background(), "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := admitAsync(c, ctx, "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1)
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued admit = %v, want context.Canceled", err)
	}
	if c.QueueDepth(PriorityOLTP) != 0 {
		t.Fatal("cancelled waiter still counted in queue depth")
	}

	// The abandoned waiter must not consume the refill.
	clk.advance(100 * time.Millisecond)
	c.Tick()
	if got := c.Tokens("a"); got != 1 {
		t.Fatalf("tokens after cancelled waiter = %v, want 1", got)
	}
}

func TestAlwaysAdmitPassThrough(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:  AlwaysAdmit,
		Default: Limits{Rate: 0.001, Burst: 1},
	}, clk)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := c.Admit(ctx, "a", PriorityOLAP); err != nil {
			t.Fatalf("AlwaysAdmit shed request %d: %v", i, err)
		}
	}
	if c.QueueDepth(PriorityOLAP) != 0 {
		t.Fatal("AlwaysAdmit queued a request")
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 0.001, Burst: 1},
		MaxWait: time.Hour,
	}, nil, WithClock(clk.now))

	if err := c.Admit(context.Background(), "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	res := admitAsync(c, context.Background(), "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1)
	c.Close()
	err := <-res
	var oe *faults.OverloadError
	if !errors.As(err, &oe) || oe.Reason != "closed" {
		t.Fatalf("waiter at close got %v, want OverloadError(closed)", err)
	}
	if d, ok := faults.RetryAfterHint(err); !ok || d != oe.RetryAfter {
		t.Fatalf("RetryAfterHint = (%v,%v), want (%v,true)", d, ok, oe.RetryAfter)
	}
	c.Close() // idempotent
}

func TestAdmitAfterCloseSheds(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 0.001, Burst: 1},
		MaxWait: time.Hour,
	}, nil, WithClock(clk.now))
	c.Close()

	// After Close nothing drains the queues, so a late Admit must shed
	// immediately instead of enqueueing a waiter that blocks forever.
	done := make(chan error, 1)
	go func() { done <- c.Admit(context.Background(), "a", PriorityOLTP) }()
	select {
	case err := <-done:
		var oe *faults.OverloadError
		if !errors.As(err, &oe) || oe.Reason != "closed" {
			t.Fatalf("Admit after Close = %v, want OverloadError(closed)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Admit after Close blocked")
	}
}

func TestCloseConcurrent(t *testing.T) {
	c := New(Config{
		Policy:  TokenBucket,
		Default: Limits{Rate: 1000, Burst: 10},
	}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close() // must not panic on double close of the stop channel
		}()
	}
	wg.Wait()
}

func TestQueueBoundIgnoresCancelledWaiters(t *testing.T) {
	clk := newFakeClock()
	c := newTestController(t, Config{
		Policy:   TokenBucket,
		Default:  Limits{Rate: 10, Burst: 1},
		MaxQueue: 2,
		MaxWait:  time.Hour,
	}, clk)

	// Drain the burst, fill the queue to its bound, then cancel every
	// waiter without running a grant pass: the cancelled waiters still
	// sit in the slice (Tick compacts them later), but their slots must
	// free immediately for the bound check.
	if err := c.Admit(context.Background(), "a", PriorityOLTP); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r1 := admitAsync(c, ctx, "a", PriorityOLTP)
	r2 := admitAsync(c, ctx, "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 2)
	cancel()
	for _, r := range []<-chan error{r1, r2} {
		if err := <-r; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
		}
	}

	res := admitAsync(c, context.Background(), "a", PriorityOLTP)
	waitDepth(t, c, PriorityOLTP, 1) // queued — not shed with reason "queue"
	clk.advance(time.Second)
	c.Tick()
	if err := <-res; err != nil {
		t.Fatalf("arrival after cancellation churn = %v, want admission", err)
	}
}

func TestTenantContext(t *testing.T) {
	ctx := context.Background()
	if got := TenantFrom(ctx); got != DefaultTenant {
		t.Fatalf("untagged tenant = %q, want %q", got, DefaultTenant)
	}
	if got := TenantFrom(WithTenant(ctx, "acme")); got != "acme" {
		t.Fatalf("tagged tenant = %q, want acme", got)
	}
	if got := TenantFrom(WithTenant(ctx, "")); got != DefaultTenant {
		t.Fatalf("empty tag tenant = %q, want %q", got, DefaultTenant)
	}
}
