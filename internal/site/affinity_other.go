//go:build !linux

package site

// runOnOwnCPU runs f: binding a thread to a CPU is implemented on Linux
// only.
func runOnOwnCPU(f func()) { f() }
