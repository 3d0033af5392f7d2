//go:build linux

package site

import (
	"math/bits"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's cpu_set_t: one bit per CPU, 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) syscall(nr uintptr) error {
	// pid 0 = the calling thread.
	_, _, errno := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

type cpuTokens struct {
	all  cpuMask  // the mask a bound thread goes back to
	free chan int // one token per CPU of all
}

// cpus is the process's CPUs, read once.
var cpus = sync.OnceValue(func() (c cpuTokens) {
	if c.all.syscall(syscall.SYS_SCHED_GETAFFINITY) != nil {
		return c
	}
	n := 0
	for _, word := range c.all {
		n += bits.OnesCount64(word)
	}
	c.free = make(chan int, n)
	for w, word := range c.all {
		for ; word != 0; word &= word - 1 {
			c.free <- 64*w + bits.TrailingZeros64(word)
		}
	}
	return c
})

// runOnOwnCPU runs f with the calling goroutine's OS thread bound to a CPU
// that no other such call holds, waiting for one to come free: as many run
// at a time as the process has CPUs, each on its own. With fewer than two
// CPUs, or a kernel that refuses, f simply runs.
//
// Why bind: the kernel leaves a woken thread on the CPU it last ran on unless
// it sees another one idle, and on a small virtual machine it was measured
// to keep all of a query's scan workers on one vCPU for seconds on end while
// the other idled — every thread's run-queue wait equal to its run time,
// query latency doubled at equal CPU time, and which of the two regimes a
// process fell into decided by thread wake-up history (EXPERIMENTS.md,
// "PR 24 — steadiness"). Moving the thread without holding it there, and
// binding only a thread found on a sibling's CPU, were tried and are worse
// than either regime: the kernel gathers the threads again and every task
// pays a migration.
func runOnOwnCPU(f func()) {
	c := cpus()
	if cap(c.free) < 2 {
		f()
		return
	}
	cpu := <-c.free
	defer func() { c.free <- cpu }()
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.LockOSThread()
	if one.syscall(syscall.SYS_SCHED_SETAFFINITY) != nil {
		runtime.UnlockOSThread()
		f()
		return
	}
	f()
	if c.all.syscall(syscall.SYS_SCHED_SETAFFINITY) != nil {
		// The thread stays bound, so it must stay this goroutine's: left
		// locked, no other goroutine is ever scheduled onto it, and it is
		// destroyed when the goroutine exits.
		return
	}
	runtime.UnlockOSThread()
}
