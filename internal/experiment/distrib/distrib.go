// Package distrib implements a coordinator-less work-claiming protocol over
// a shared checkpoint directory, so several sweep processes — on one host or
// on many hosts sharing storage — can split one experiment grid.
//
// There is no leader and no network protocol: the only shared medium is the
// filesystem, and the only primitives used are ones that are atomic on POSIX
// filesystems (and on NFS): exclusive hard-link creation and rename. Each
// job in the grid is identified by its result-manifest filename; a worker
// claims a job by link-publishing a lease file next to the manifest,
// heartbeats the lease while it simulates, publishes the result through the
// manifest's atomic temp-file + rename, and releases the lease. A worker
// that wants a job someone else holds polls with bounded backoff until the
// manifest appears — or, when the lease's heartbeat has gone stale (the
// holder crashed or was killed), steals the lease and claims the job itself.
//
// Correctness does not rest on the leases. Every job is a pure function of
// its configuration and manifests are published atomically with the job's
// identity echoed inside, so if two workers ever run the same job — a steal
// racing a not-quite-dead holder, clock skew, a partitioned heartbeat — both
// publish byte-identical manifests and the duplicate work is wasted, not
// wrong. Leases exist to make duplicate work rare, which is why the
// protocol can be this small. See docs/DISTRIBUTED.md for the failure
// matrix.
//
// Wall-clock time is confined to this package on purpose: simulator output
// must not depend on it (internal/sim's TestDeterminismGate runs every
// scheme twice and compares the bytes), and everything here flows through
// the Clock interface so the fault-injection tests can drive the protocol
// on a manual clock.
package distrib

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock time for lease expiry and retry backoff. The
// production implementation is System; tests use ManualClock to step time
// explicitly.
type Clock interface {
	// Now returns the current time in nanoseconds. Absolute origin does
	// not matter; only differences are used. Hosts sharing a checkpoint
	// directory must agree loosely (well within one lease TTL).
	Now() int64
	// After returns a channel that is closed once d has elapsed.
	After(d time.Duration) <-chan struct{}
}

// System is the production Clock, backed by the real wall clock.
var System Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() int64 { return time.Now().UnixNano() }

func (systemClock) After(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

// ManualClock is a test Clock whose time only moves when Advance is called.
// Sleepers registered through After fire when Advance moves now past their
// deadline, so tests can deterministically expire leases and release
// backoff waits.
type ManualClock struct {
	mu      sync.Mutex
	now     int64
	waiters []manualWaiter
}

type manualWaiter struct {
	deadline int64
	ch       chan struct{}
}

// NewManualClock returns a ManualClock starting at the given nanosecond
// timestamp.
func NewManualClock(start int64) *ManualClock { return &ManualClock{now: start} }

// Now implements Clock.
func (c *ManualClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After implements Clock. A non-positive duration fires immediately.
func (c *ManualClock) After(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		close(ch)
		return ch
	}
	c.waiters = append(c.waiters, manualWaiter{deadline: c.now + int64(d), ch: ch})
	return ch
}

// Advance moves the clock forward by d and fires every waiter whose
// deadline has been reached.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += int64(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if w.deadline <= c.now {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}
