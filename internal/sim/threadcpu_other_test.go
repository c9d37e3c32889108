//go:build !linux

package sim

import "time"

var epoch = time.Now()

// threadCPU stands in for the thread CPU clock where getrusage has no
// per-thread mode: it reads wall time, which other load inflates.
func threadCPU() time.Duration { return time.Since(epoch) }
