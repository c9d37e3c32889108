package sweepd

import (
	"fmt"
	"net/http"
	"testing"

	"tagprefetch/internal/experiment"
)

func mkRefs(sw *sweepRec, n int, prefix string) []jobRef {
	refs := make([]jobRef, n)
	for i := range refs {
		refs[i] = jobRef{sw: sw, name: fmt.Sprintf("%s-%d", prefix, i)}
	}
	return refs
}

// TestWRRFairness is the acceptance-criteria fairness property: with two
// tenants saturating the queue, every scheduling round serves both — in
// any window of two consecutive pops while both tenants have work, both
// tenants appear. No burst of submissions from one tenant can starve the
// other.
func TestWRRFairness(t *testing.T) {
	q := newRoundRobin()
	swA := &sweepRec{tenant: "alice"}
	swB := &sweepRec{tenant: "bob"}
	// Alice floods the queue first — three sweeps' worth — then Bob
	// submits one.
	q.push("alice", mkRefs(swA, 30, "a")...)
	q.push("bob", mkRefs(swB, 10, "b")...)

	var order []string
	for {
		ref, ok := q.pop()
		if !ok {
			break
		}
		order = append(order, ref.sw.tenant)
	}
	if len(order) != 40 {
		t.Fatalf("popped %d refs, want 40", len(order))
	}
	// While Bob has work (his 10 refs interleave into the first ~20
	// pops), every adjacent pair must contain both tenants.
	bobSeen := 0
	for i := 0; i+1 < len(order) && bobSeen < 10; i++ {
		if order[i] == order[i+1] {
			t.Fatalf("pops %d and %d both served %s while both tenants had work (order %v)",
				i, i+1, order[i], order[:i+2])
		}
		if order[i] == "bob" {
			bobSeen++
		}
	}
	// Once Bob drains, Alice's remainder flows without artificial gaps.
	tail := order[len(order)-10:]
	for _, tn := range tail {
		if tn != "alice" {
			t.Fatalf("tail pop served %s, want alice's backlog to drain", tn)
		}
	}
}

// TestWRRRemoveSweep: cancelling releases exactly the dead sweep's refs
// and frees queue capacity.
func TestWRRRemoveSweep(t *testing.T) {
	q := newRoundRobin()
	swA, swB := &sweepRec{tenant: "t"}, &sweepRec{tenant: "t"}
	q.push("t", mkRefs(swA, 5, "a")...)
	q.push("t", mkRefs(swB, 4, "b")...)
	if removed := q.removeSweep(swA); removed != 5 {
		t.Fatalf("removeSweep released %d refs, want 5", removed)
	}
	if q.queued != 4 {
		t.Fatalf("queued = %d after removal, want 4", q.queued)
	}
	for i := 0; i < 4; i++ {
		ref, ok := q.pop()
		if !ok || ref.sw != swB {
			t.Fatalf("pop %d = %+v ok=%v, want swB's refs only", i, ref, ok)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestWRREmptyTenantSkipped: a tenant that drains is skipped without
// stalling rotation, and resumes in place when it refills.
func TestWRREmptyTenantSkipped(t *testing.T) {
	q := newRoundRobin()
	swA, swB := &sweepRec{tenant: "a"}, &sweepRec{tenant: "b"}
	q.push("a", mkRefs(swA, 1, "a")...)
	q.push("b", mkRefs(swB, 2, "b")...)
	seq := []string{}
	for {
		ref, ok := q.pop()
		if !ok {
			break
		}
		seq = append(seq, ref.sw.tenant)
	}
	want := []string{"a", "b", "b"}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", seq, want)
	}
	// Refill the drained tenant: it must be served again.
	q.push("a", mkRefs(swA, 1, "a2")...)
	if ref, ok := q.pop(); !ok || ref.sw != swA {
		t.Errorf("refilled tenant not served: %+v ok=%v", ref, ok)
	}
}

// TestDrainedTenantsLeaveScheduler: uncached requests from many fresh
// tenants queue work under each of them; once every sweep is done the
// scheduler holds no tenant, so a long-lived daemon's pop stays O(1)
// whatever its tenant count.
func TestDrainedTenantsLeaveScheduler(t *testing.T) {
	// The stub publishes nothing, so every request misses the cache.
	s, ts := newTestServer(t, Config{Workers: 2}, func(experiment.Job) error { return nil })
	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Instructions: 10_000, Warmup: 10_000}
	var ids []string
	for i := 0; i < 50; i++ {
		req.Tenant = fmt.Sprintf("tenant-%d", i)
		code, st, body := postSweep(t, ts, req)
		if code != http.StatusAccepted || st.Jobs.CachedAtSubmit != 0 {
			t.Fatalf("POST %d = %d %s: want 202 with nothing cached", i, code, body)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, ts, id, StateDone)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, m, q := len(s.sched.order), len(s.sched.byName), s.sched.queued; n != 0 || m != 0 || q != 0 {
		t.Errorf("drained scheduler holds %d tenants in its ring, %d by name, %d refs; want none", n, m, q)
	}
}
