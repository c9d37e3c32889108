package sim

import (
	"syscall"
	"time"
)

// threadCPU returns the user plus system CPU time the calling OS thread
// has used. Callers lock their goroutine to the thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
