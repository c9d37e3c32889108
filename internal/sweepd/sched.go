package sweepd

import "tagprefetch/internal/experiment"

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

// roundRobin schedules over per-tenant FIFOs: each pop serves the next
// tenant with work, one ref per tenant per round. With two saturated
// tenants every consecutive pair of pops serves both, so neither starves
// no matter how many sweeps the other piles up. Tenants are visited in
// first-seen order; an empty tenant is skipped but keeps its slot, so a
// tenant that refills resumes at its old position rather than jumping the
// queue.
//
// roundRobin is not self-locking: the Server's mutex guards every method.
type roundRobin struct {
	order  []*tenantQ
	byName map[string]*tenantQ
	cursor int // index of the tenant served last (-1 before the first pop)
	queued int // total refs across all tenants
}

func newRoundRobin() *roundRobin {
	return &roundRobin{byName: make(map[string]*tenantQ), cursor: -1}
}

// tenant returns (creating if needed) the named tenant's queue.
func (q *roundRobin) tenant(name string) *tenantQ {
	t := q.byName[name]
	if t == nil {
		t = &tenantQ{name: name}
		q.byName[name] = t
		q.order = append(q.order, t)
	}
	return t
}

// push appends refs to the tenant's FIFO.
func (q *roundRobin) push(tenant string, refs ...jobRef) {
	t := q.tenant(tenant)
	t.refs = append(t.refs, refs...)
	q.queued += len(refs)
}

// pop removes and returns the next ref under the round-robin policy; ok is
// false when nothing is queued.
func (q *roundRobin) pop() (jobRef, bool) {
	if q.queued == 0 {
		return jobRef{}, false
	}
	// Advance to the next tenant with work, starting after the cursor
	// (from the front when nothing has been popped yet).
	n := len(q.order)
	start := q.cursor + 1
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		t := q.order[idx]
		if len(t.refs) == 0 {
			continue
		}
		q.cursor = idx
		return q.take(t), true
	}
	return jobRef{}, false
}

func (q *roundRobin) take(t *tenantQ) jobRef {
	ref := t.refs[0]
	t.refs = t.refs[1:]
	q.queued--
	return ref
}

// removeSweep drops every queued ref belonging to sw (a cancelled or
// failed sweep), returning the number released. Eager removal — rather
// than lazy skipping at pop — frees queue capacity immediately, so a
// cancel actually relieves 429 backpressure.
func (q *roundRobin) removeSweep(sw *sweepRec) int {
	removed := 0
	for _, t := range q.order {
		kept := t.refs[:0]
		for _, ref := range t.refs {
			if ref.sw == sw {
				removed++
				continue
			}
			kept = append(kept, ref)
		}
		t.refs = kept
	}
	q.queued -= removed
	return removed
}
