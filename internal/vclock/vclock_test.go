package vclock

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestSim returns a Sim with tight graces so tests run fast.
func newTestSim(t *testing.T) *Sim {
	t.Helper()
	s := NewSim(SimConfig{ParkGrace: 5 * time.Microsecond, IdleGrace: 100 * time.Microsecond})
	t.Cleanup(s.Stop)
	return s
}

// onClock runs f as a clock-driven task (Go) and waits for it to return.
func onClock(c Clock, f func()) {
	done := make(chan struct{})
	Go(c, func() {
		defer close(done)
		f()
	})
	<-done
}

func TestWallImplementsClock(t *testing.T) {
	var c Clock = Wall{}
	start := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(start) <= 0 {
		t.Fatalf("wall Since did not advance")
	}
	tm := c.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatalf("wall timer Stop on pending timer = false")
	}
	tk := c.NewTicker(time.Hour)
	tk.Stop()
}

func TestSimSleepAdvancesVirtualTime(t *testing.T) {
	s := newTestSim(t)
	start := s.Now()
	wall := time.Now()
	onClock(s, func() { s.Sleep(10 * time.Minute) })
	if got := s.Since(start); got != 10*time.Minute {
		t.Fatalf("virtual elapsed = %v, want 10m", got)
	}
	if el := time.Since(wall); el > 5*time.Second {
		t.Fatalf("10 virtual minutes took %v wall", el)
	}
}

func TestSimSleepOrdering(t *testing.T) {
	s := newTestSim(t)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		wg.Add(1)
		Go(s, func() {
			defer wg.Done()
			s.Sleep(d)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
	if s.Elapsed() != 30*time.Millisecond {
		t.Fatalf("elapsed = %v, want 30ms", s.Elapsed())
	}
}

func TestSimSameInstantFiresInScheduleOrder(t *testing.T) {
	s := newTestSim(t)
	const n = 8
	chs := make([]<-chan time.Time, n)
	for i := 0; i < n; i++ {
		chs[i] = s.After(time.Second)
	}
	// All fire at the same virtual instant; every channel must deliver.
	for i, ch := range chs {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("After channel %d never fired", i)
		}
	}
	if s.Elapsed() != time.Second {
		t.Fatalf("elapsed = %v, want 1s", s.Elapsed())
	}
}

func TestSimTimerStop(t *testing.T) {
	s := newTestSim(t)
	tm := s.NewTimer(time.Hour)
	if !tm.Stop() {
		t.Fatalf("Stop on pending sim timer = false")
	}
	if tm.Stop() {
		t.Fatalf("second Stop = true")
	}
	// A stopped hour-long timer must not block a short sleep behind it.
	onClock(s, func() { s.Sleep(time.Millisecond) })
	if s.Elapsed() != time.Millisecond {
		t.Fatalf("elapsed = %v, want 1ms (stopped timer advanced the clock?)", s.Elapsed())
	}
}

func TestSimTickerDeliversAndStops(t *testing.T) {
	s := newTestSim(t)
	tk := s.NewTicker(100 * time.Millisecond)
	var ticks int
	var before, after time.Duration
	onClock(s, func() {
		for ticks < 5 {
			select {
			case <-tk.C:
				ticks++
			case <-time.After(5 * time.Second):
				return
			}
		}
		tk.Stop()
		// After Stop the ticker must not keep the event queue busy: a
		// plain sleep should advance exactly its own duration from here.
		before = s.Elapsed()
		s.Sleep(time.Millisecond)
		after = s.Elapsed()
	})
	if ticks < 5 {
		t.Fatalf("ticker stalled after %d ticks", ticks)
	}
	if before < 500*time.Millisecond {
		t.Fatalf("elapsed = %v after 5 ticks of 100ms", before)
	}
	if got := after - before; got != time.Millisecond {
		t.Fatalf("post-Stop sleep advanced %v, want 1ms", got)
	}
}

func TestSleepCtxCancel(t *testing.T) {
	s := newTestSim(t)
	// A short ticker keeps the event heap busy so the sim advances in
	// 1ms virtual steps instead of jumping straight to the sleeper's
	// hour-long horizon — the cancel must land while it is still parked.
	tk := s.NewTicker(time.Millisecond)
	defer tk.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	Go(s, func() { errc <- SleepCtx(ctx, s, time.Hour) })
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("SleepCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("cancelled SleepCtx never returned")
	}
	if s.Elapsed() >= time.Hour {
		t.Fatalf("sim ran the full hour (%v) despite cancellation window", s.Elapsed())
	}
}

func TestSleepCtxPreCancelled(t *testing.T) {
	s := newTestSim(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := SleepCtx(ctx, s, time.Hour); err != context.Canceled {
		t.Fatalf("SleepCtx on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSleepCtxCompletes(t *testing.T) {
	s := newTestSim(t)
	var err error
	onClock(s, func() { err = SleepCtx(context.Background(), s, 3*time.Second) })
	if err != nil {
		t.Fatalf("SleepCtx = %v", err)
	}
	if s.Elapsed() != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", s.Elapsed())
	}
}

// TestSimIdleFallback exercises the conservative path: a goroutine that
// is registered but blocked on a channel (invisible to the clock) fed by
// an unregistered sleeper. The clock must still advance.
func TestSimIdleFallback(t *testing.T) {
	s := newTestSim(t)
	ch := make(chan struct{})
	go func() {
		// Unregistered helper: sleeps on the clock, then signals.
		s.Sleep(50 * time.Millisecond)
		close(ch)
	}()
	done := make(chan struct{})
	Go(s, func() {
		defer close(done)
		<-ch // parked outside the clock's view
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("clock never advanced past a channel-blocked registered goroutine")
	}
}

// TestSimDeterministicWakeTimes pins what the Sim guarantees: each
// goroutine observes the same sequence of virtual wake times on every
// run (the interleaving of goroutines woken at the same instant is the
// scheduler's business, not the clock's).
func TestSimDeterministicWakeTimes(t *testing.T) {
	run := func() ([6][4]time.Duration, time.Duration) {
		s := NewSim(SimConfig{ParkGrace: 5 * time.Microsecond, IdleGrace: 100 * time.Microsecond})
		defer s.Stop()
		var wakes [6][4]time.Duration
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			Go(s, func() {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					s.Sleep(time.Duration(1+(i*7+r*3)%11) * time.Millisecond)
					wakes[i][r] = s.Elapsed()
				}
			})
		}
		wg.Wait()
		return wakes, s.Elapsed()
	}
	wa, ea := run()
	wb, eb := run()
	if wa != wb {
		t.Fatalf("per-goroutine wake times diverge:\n%v\nvs\n%v", wa, wb)
	}
	if ea != eb {
		t.Fatalf("total elapsed diverges: %v vs %v", ea, eb)
	}
}

func TestSimStopWakesSleepers(t *testing.T) {
	s := NewSim(SimConfig{ParkGrace: 5 * time.Microsecond, IdleGrace: 100 * time.Microsecond})
	var woke atomic.Int32
	var wg sync.WaitGroup
	// Park sleepers at wildly different horizons, then Stop: all must
	// return promptly instead of hanging on a dead clock.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Sleep(time.Duration(i+1) * time.Hour)
			woke.Add(1)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Stop left %d of 4 sleepers parked", 4-woke.Load())
	}
}

func TestOrWallAndEnterOnWall(t *testing.T) {
	if _, ok := OrWall(nil).(Wall); !ok {
		t.Fatalf("OrWall(nil) is not Wall")
	}
	s := newTestSim(t)
	if OrWall(s) != Clock(s) {
		t.Fatalf("OrWall(sim) did not pass through")
	}
	Enter(Wall{})() // must be a no-op, not a panic
	ran := false
	onClock(Wall{}, func() { ran = true }) // a plain go statement
	if !ran {
		t.Fatalf("Go on a Wall clock did not run f")
	}
}

// TestSimManyGoroutinesThroughput sanity-checks that a few thousand
// virtual sleeps across goroutines complete quickly in wall time.
func TestSimManyGoroutinesThroughput(t *testing.T) {
	s := newTestSim(t)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		Go(s, func() {
			defer wg.Done()
			for r := 0; r < 100; r++ {
				s.Sleep(time.Duration(1+(i+r)%13) * time.Millisecond)
			}
		})
	}
	wg.Wait()
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("3200 virtual sleeps took %v wall", el)
	}
	if s.Elapsed() <= 0 {
		t.Fatalf("no virtual time elapsed")
	}
	total, _ := s.Advances()
	if total == 0 {
		t.Fatalf("no advances recorded")
	}
}
