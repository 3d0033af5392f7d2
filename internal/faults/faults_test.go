package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"proteus/internal/simnet"
)

func TestSiteDownAndPartition(t *testing.T) {
	r := New(1)
	if err := r.Check(0, 1); err != nil {
		t.Fatalf("healthy check: %v", err)
	}
	r.SetSiteDown(1, true)
	if err := r.Check(0, 1); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("want ErrSiteDown, got %v", err)
	}
	if _, err := r.Intercept(1, 0, 10); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("want ErrSiteDown from Intercept, got %v", err)
	}
	if got := r.DownSites(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownSites = %v", got)
	}
	r.SetSiteDown(1, false)

	r.Partition([]simnet.SiteID{0, 1}, []simnet.SiteID{2})
	if !r.Partitioned() {
		t.Fatal("Partitioned should be true")
	}
	if err := r.Check(0, 1); err != nil {
		t.Fatalf("same group should reach: %v", err)
	}
	if err := r.Check(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	// Ungrouped sites (e.g. the broker pseudo-site) reach everyone.
	if err := r.Check(simnet.ASASite, 2); err != nil {
		t.Fatalf("ungrouped site should reach: %v", err)
	}
	r.Heal()
	if err := r.Check(0, 2); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestLossyLinkIsSeededAndDirected(t *testing.T) {
	r := New(7)
	r.SetLink(0, 1, LinkFault{Drop: 1.0})
	if _, err := r.Intercept(0, 1, 8); !errors.Is(err, ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	// The reverse direction is unaffected.
	if _, err := r.Intercept(1, 0, 8); err != nil {
		t.Fatalf("reverse link should deliver: %v", err)
	}
	r.SetLink(0, 1, LinkFault{Latency: time.Millisecond})
	d, err := r.Intercept(0, 1, 8)
	if err != nil || d != time.Millisecond {
		t.Fatalf("want 1ms latency, got %v, %v", d, err)
	}

	// A partial drop probability is reproducible across same-seed registries.
	count := func(seed int64) int {
		reg := New(seed)
		reg.SetLink(0, 1, LinkFault{Drop: 0.5})
		drops := 0
		for i := 0; i < 100; i++ {
			if _, err := reg.Intercept(0, 1, 8); err != nil {
				drops++
			}
		}
		return drops
	}
	if a, b := count(42), count(42); a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
}

func TestRetry(t *testing.T) {
	r := New(3)
	// Succeeds after transient drops.
	n := 0
	err := r.Retry(Backoff{Base: time.Microsecond, Deadline: time.Second}, func() error {
		n++
		if n < 3 {
			return ErrDropped
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("retry: err=%v n=%d", err, n)
	}

	// Site-down fails fast without burning the deadline.
	n = 0
	err = r.Retry(Backoff{}, func() error { n++; return ErrSiteDown })
	if !errors.Is(err, ErrSiteDown) || n != 1 {
		t.Fatalf("site-down: err=%v n=%d", err, n)
	}

	// Persistent drops surface a typed timeout.
	err = r.Retry(Backoff{Base: time.Microsecond, Max: 10 * time.Microsecond, Deadline: 2 * time.Millisecond},
		func() error { return ErrUnreachable })
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}

	// Non-retriable errors return unchanged.
	boom := errors.New("boom")
	if err := r.Retry(Backoff{}, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestScheduleGeneration(t *testing.T) {
	cfg := ScheduleConfig{
		Sites:    []simnet.SiteID{0, 1, 2},
		Duration: time.Second,
		Crashes:  3,
	}
	evs := NewSchedule(11, cfg)
	crashes, recovers, parts, heals := 0, 0, 0, 0
	for i, ev := range evs {
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.At < 0 || ev.At > cfg.Duration {
			t.Fatalf("event outside window: %+v", ev)
		}
		switch ev.Kind {
		case EventCrash:
			crashes++
		case EventRecover:
			recovers++
		case EventPartition:
			parts++
			if len(ev.Groups) != 2 || len(ev.Groups[0]) == 0 || len(ev.Groups[1]) == 0 {
				t.Fatalf("bad partition groups: %+v", ev.Groups)
			}
		case EventHeal:
			heals++
		}
	}
	if crashes != 3 || recovers != 3 || parts != 1 || heals != 1 {
		t.Fatalf("counts: crash=%d recover=%d part=%d heal=%d", crashes, recovers, parts, heals)
	}

	// Same seed, same schedule; different seed, (almost surely) different.
	evs2 := NewSchedule(11, cfg)
	if len(evs) != len(evs2) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range evs {
		if evs[i].At != evs2[i].At || evs[i].Kind != evs2[i].Kind || evs[i].Site != evs2[i].Site {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, evs[i], evs2[i])
		}
	}
}

// TestRetryAfterHintOnlyForTypedSheds: only an *OverloadError carries a
// retry hint; a bare ErrOverload reports none, as any other error does.
func TestRetryAfterHintOnlyForTypedSheds(t *testing.T) {
	typed := fmt.Errorf("wrapped: %w", &OverloadError{Tenant: "a", RetryAfter: time.Second, Reason: "queue"})
	if d, ok := RetryAfterHint(typed); !ok || d != time.Second {
		t.Errorf("typed shed: RetryAfterHint = (%v, %v), want (1s, true)", d, ok)
	}
	for _, err := range []error{ErrOverload, fmt.Errorf("%w: tenant %q", ErrOverload, "a"), ErrTimeout, nil} {
		if d, ok := RetryAfterHint(err); ok || d != 0 {
			t.Errorf("RetryAfterHint(%v) = (%v, %v), want (0, false)", err, d, ok)
		}
	}
}
