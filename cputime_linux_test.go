package crackdb

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// threadCPU runs f locked to its OS thread and returns the CPU time that
// thread spent on it, user and system: f's own work, and the garbage
// collection its allocations assist, but not what other threads of the
// process or other processes on the machine did meanwhile.
func threadCPU(t testing.TB, f func()) (time.Duration, bool) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	now := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	t0 := now()
	f()
	return now() - t0, true
}
