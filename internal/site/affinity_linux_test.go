//go:build linux

package site

import (
	"math/bits"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"proteus/internal/vclock"
)

// threadCPUs reads the calling thread's affinity mask.
func threadCPUs(t *testing.T) cpuMask {
	var m cpuMask
	if err := m.syscall(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		t.Errorf("sched_getaffinity: %v", err)
	}
	return m
}

func (m cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestScanTasksRunOnDistinctCPUs holds as many scan tasks running at once as
// the process has CPUs, on two sites' pools: each must be bound to exactly
// one CPU, no two to the same one, and every token must be back afterwards.
func TestScanTasksRunOnDistinctCPUs(t *testing.T) {
	n := cap(cpus().free)
	if n < 2 {
		t.Skip("one CPU: nothing to keep apart")
	}
	sites := []*Site{newSite(t), newSite(t)}
	var mu sync.Mutex
	seen := map[cpuMask]bool{}
	var running, done sync.WaitGroup
	running.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		s := sites[i%len(sites)]
		go func() {
			defer done.Done()
			err := s.RunScan(func() {
				m := threadCPUs(t)
				if m.count() != 1 {
					t.Errorf("scan task bound to %d CPUs, want 1", m.count())
				}
				mu.Lock()
				if seen[m] {
					t.Errorf("two running scan tasks bound to the same CPU")
				}
				seen[m] = true
				mu.Unlock()
				running.Done()
				running.Wait() // all n are inside their task at once
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if got := len(cpus().free); got != n {
		t.Errorf("%d of %d CPU tokens returned", got, n)
	}
}

// TestScanTasksBeyondCPUsFinish queues several times more scan tasks than
// CPUs (each pool holds GOMAXPROCS workers, the tokens are fewer): the
// surplus waits its turn, nothing is lost, and no thread is left bound.
func TestScanTasksBeyondCPUsFinish(t *testing.T) {
	sites := []*Site{newSite(t), newSite(t), newSite(t)}
	var wg sync.WaitGroup
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 48; i++ {
		wg.Add(1)
		s := sites[i%len(sites)]
		go func() {
			defer wg.Done()
			if err := s.RunScan(func() { mu.Lock(); ran++; mu.Unlock() }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran != 48 {
		t.Fatalf("ran %d of 48 tasks", ran)
	}
	if got, n := len(cpus().free), cap(cpus().free); got != n {
		t.Errorf("%d of %d CPU tokens returned", got, n)
	}
	// Whatever threads the tasks ran on are unbound again: no goroutine
	// scheduled now may find itself confined to one CPU.
	all := cpus().all
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			if m := threadCPUs(t); m != all {
				t.Errorf("a thread was left bound to %d CPUs of %d", m.count(), all.count())
			}
		}()
	}
	wg.Wait()
}

// TestScanTasksUnboundOnSimClock: on a simulated clock a scan task keeps the
// process's whole mask, and gets its own CPU again when the wall clock is
// back.
func TestScanTasksUnboundOnSimClock(t *testing.T) {
	if cap(cpus().free) < 2 {
		t.Skip("one CPU: nothing is ever bound")
	}
	s := newSite(t)
	sim := vclock.NewSim(vclock.SimConfig{})
	defer sim.Stop()
	for _, tc := range []struct {
		clk  vclock.Clock
		want int
	}{{sim, cpus().all.count()}, {vclock.Wall{}, 1}, {nil, 1}} {
		s.SetClock(tc.clk)
		if err := s.RunScan(func() {
			if got := threadCPUs(t).count(); got != tc.want {
				t.Errorf("clock %T: scan task may run on %d CPUs, want %d", tc.clk, got, tc.want)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}
