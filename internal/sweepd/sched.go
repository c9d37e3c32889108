package sweepd

import (
	"slices"

	"tagprefetch/internal/experiment"
)

// jobRef is one queued unit of work: a cache-miss grid point owed to one
// sweep. The same underlying grid point queued by two sweeps yields two
// refs — the second executes against the manifest the first published, so
// the duplicate costs a disk read, not a simulation.
type jobRef struct {
	sw   *sweepRec
	job  experiment.Job
	name string // content address (experiment.JobName)
}

// tenantQ is one tenant's FIFO of queued refs.
type tenantQ struct {
	name string
	refs []jobRef
}

// roundRobin schedules over per-tenant FIFOs: each pop serves the tenant
// at the front of the ring, one ref per tenant per round, and the tenant
// served last rejoins the ring's back at the next pop, behind any tenant
// that arrived meanwhile. With two saturated tenants every consecutive
// pair of pops serves both, so neither starves no matter how many sweeps
// the other piles up. The scheduler holds only tenants with queued refs:
// a tenant that drains leaves it, so pop is O(1) and a drained tenant
// costs nothing; one that refills joins at the back.
//
// roundRobin is not self-locking: the Server's mutex guards every method.
type roundRobin struct {
	order  []*tenantQ // the ring, next to serve first
	served *tenantQ   // served last and still queued; rejoins order at the next pop
	byName map[string]*tenantQ
	queued int // total refs across all tenants
}

func newRoundRobin() *roundRobin {
	return &roundRobin{byName: make(map[string]*tenantQ)}
}

// push appends refs, at least one, to the tenant's FIFO, adding the
// tenant to the back of the ring when it had none queued.
func (q *roundRobin) push(tenant string, refs ...jobRef) {
	t := q.byName[tenant]
	if t == nil {
		t = &tenantQ{name: tenant}
		q.byName[tenant] = t
		q.order = append(q.order, t)
	}
	t.refs = append(t.refs, refs...)
	q.queued += len(refs)
}

// pop removes and returns the next ref under the round-robin policy; ok is
// false when nothing is queued.
func (q *roundRobin) pop() (jobRef, bool) {
	if q.served != nil {
		q.order = append(q.order, q.served)
		q.served = nil
	}
	if len(q.order) == 0 {
		return jobRef{}, false
	}
	t := q.order[0]
	q.order[0] = nil
	q.order = q.order[1:]
	ref := t.refs[0]
	t.refs[0] = jobRef{}
	t.refs = t.refs[1:]
	q.queued--
	if len(t.refs) > 0 {
		q.served = t
	} else {
		delete(q.byName, t.name)
	}
	return ref, true
}

// removeSweep drops every queued ref belonging to sw (a cancelled or
// failed sweep), and every tenant left with none, returning the number
// released. Eager removal — rather than lazy skipping at pop — frees
// queue capacity immediately, so a cancel actually relieves 429
// backpressure.
func (q *roundRobin) removeSweep(sw *sweepRec) int {
	removed := 0
	// drained drops sw's refs from t and reports whether t has none left.
	drained := func(t *tenantQ) bool {
		kept := slices.DeleteFunc(t.refs, func(ref jobRef) bool { return ref.sw == sw })
		removed += len(t.refs) - len(kept)
		t.refs = kept
		if len(kept) > 0 {
			return false
		}
		delete(q.byName, t.name)
		return true
	}
	if q.served != nil && drained(q.served) {
		q.served = nil
	}
	q.order = slices.DeleteFunc(q.order, drained)
	q.queued -= removed
	return removed
}
