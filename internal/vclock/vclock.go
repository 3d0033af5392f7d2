// Package vclock abstracts the flow of time behind a Clock interface so
// the same engine code runs against the wall clock in production and
// against a discrete-event virtual clock (Sim) in simulation. Every
// latency the engine models — interconnect charges, tier I/O, retry
// backoff, background tickers — goes through a Clock, which is what lets
// cmd/proteus-sim run an hour of simulated diurnal traffic in seconds of
// wall time with reproducible results.
package vclock

import (
	"context"
	"time"
)

// Clock is the time source and sleeper the engine's layers are written
// against. Wall is the production implementation; Sim is the
// discrete-event implementation whose time advances only when the
// goroutines it drives are parked waiting on it.
type Clock interface {
	// Now reports the current (wall or virtual) time.
	Now() time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep parks the calling goroutine for d (non-positive returns
	// immediately).
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc runs f in its own goroutine once d has elapsed.
	AfterFunc(d time.Duration, f func()) *Timer
	// NewTimer returns a timer that delivers on C once d has elapsed.
	NewTimer(d time.Duration) *Timer
	// NewTicker returns a ticker that delivers on C every d.
	NewTicker(d time.Duration) *Ticker
}

// Timer is a clock-implementation-independent timer handle.
type Timer struct {
	C    <-chan time.Time
	wall *time.Timer
	stop func() bool
}

// Stop cancels the timer, reporting whether it was still pending.
func (t *Timer) Stop() bool {
	if t.wall != nil {
		return t.wall.Stop()
	}
	if t.stop != nil {
		return t.stop()
	}
	return false
}

// Ticker is a clock-implementation-independent ticker handle.
type Ticker struct {
	C    <-chan time.Time
	wall *time.Ticker
	stop func() bool
}

// Stop stops the ticker; no more ticks are delivered.
func (t *Ticker) Stop() {
	if t.wall != nil {
		t.wall.Stop()
		return
	}
	if t.stop != nil {
		t.stop()
	}
}

// Wall is the production clock: a stateless adapter over package time.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (Wall) AfterFunc(d time.Duration, f func()) *Timer {
	return &Timer{wall: time.AfterFunc(d, f)}
}

// NewTimer implements Clock.
func (Wall) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, wall: t}
}

// NewTicker implements Clock.
func (Wall) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, wall: t}
}

// OrWall returns c, or the wall clock when c is nil — the idiom for
// optional Clock configuration fields.
func OrWall(c Clock) Clock {
	if c == nil {
		return Wall{}
	}
	return c
}

// Enter registers the calling goroutine as a clock-driven task when c is
// a Sim (the registration is what lets the Sim advance as soon as every
// driver is parked, instead of waiting out the idle-detection grace). It
// returns the matching leave function; on a Wall clock both are no-ops.
//
//	defer vclock.Enter(clk)()
func Enter(c Clock) func() {
	if s, ok := c.(*Sim); ok {
		s.Register()
		return s.Unregister
	}
	return func() {}
}

// Park marks the calling goroutine as blocked on a signal that only
// virtual-time progress can produce — an admission grant from a drip
// ticker, a group-commit flush its leader is still sending. On a Sim the
// goroutine counts like a clock sleeper for quiescence detection until
// the returned (idempotent) release runs, keeping the all-parked fast
// path live while waiters queue; unlike Sleep it schedules no event, so
// some other task must still drive the clock. No-op on other clocks.
func Park(c Clock) func() {
	if s, ok := c.(*Sim); ok {
		return s.park()
	}
	return func() {}
}

// SleepCtx sleeps for d on c, returning early with ctx.Err() when ctx is
// cancelled first. On a Sim clock the wait parks like any Sleep, so
// virtual time can advance through it.
func SleepCtx(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if s, ok := c.(*Sim); ok {
		return s.sleepCtx(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
