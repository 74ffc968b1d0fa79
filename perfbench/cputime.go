package main

import (
	"syscall"
	"time"
)

// cpuNow returns the CPU time this process has used so far, user plus
// system, summed over all its threads. Each simulation is single-threaded,
// so time the host spends elsewhere (steal, other tenants) does not count,
// which makes it far steadier than wall time on a shared VM.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
