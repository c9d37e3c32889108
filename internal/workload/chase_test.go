package workload

import (
	"errors"
	"runtime"
	"testing"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/xrand"
)

// successorWalk is the chase walk the visiting-order cycle replaced, kept
// as its oracle: a permutation drawn like xrand's Fisher–Yates over the
// identity, scattered into a successor table and followed from its first
// block. It returns the first count addresses.
func successorWalk(ss StreamSpec, base uint64, r *xrand.Rand, count int) []uint64 {
	n := int(maxU64(ss.Footprint/ss.Block, 2))
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	succ := make([]uint32, n)
	for i := 0; i < n; i++ {
		succ[perm[i]] = uint32(perm[(i+1)%n])
	}
	out := make([]uint64, count)
	cur := uint32(perm[0])
	for i := range out {
		out[i] = base + uint64(cur)*ss.Block
		cur = succ[cur]
	}
	return out
}

// chaseOf returns the chase stream behind stream i of g, unwrapping a
// throttle.
func chaseOf(t *testing.T, g *synth, i int) *chaseStream {
	t.Helper()
	st := g.streams[i]
	if th, ok := st.(*throttled); ok {
		st = th.inner
	}
	c, ok := st.(*chaseStream)
	if !ok {
		t.Fatalf("%s stream %d is %T, not a chase", g.spec.Name, i, st)
	}
	return c
}

// TestChaseWalkMatchesSuccessorTable: every chase stream of the catalog,
// at seeds 1-3, visits the oracle's addresses through two full cycles and
// three blocks past the second wrap.
func TestChaseWalkMatchesSuccessorTable(t *testing.T) {
	streams := 0
	for _, name := range Names() {
		spec := withDefaults(mustSpec(t, name))
		for seed := uint64(1); seed <= 3; seed++ {
			g := New(spec, seed).(*synth)
			// New draws one sub-generator seed per stream, in order.
			r := xrand.New(seed ^ hashName(spec.Name))
			for i, ss := range spec.Streams {
				sub := r.Uint64()
				if ss.Kind != ChaseKind {
					continue
				}
				if seed == 1 {
					streams++
				}
				c := chaseOf(t, g, i)
				n := len(c.order)
				want := successorWalk(ss, uint64(1)<<33+uint64(i)<<28, xrand.New(sub), 2*n+3)
				for k, w := range want {
					if a, chained := c.next(); a != w || !chained {
						t.Fatalf("%s seed %d stream %d (n=%d) address %d: got %#x chained=%v, oracle %#x",
							name, seed, i, n, k, a, chained, w)
					}
				}
			}
		}
	}
	if streams != 11 {
		t.Errorf("catalog has %d chase streams, want 11", streams)
	}
}

// chaseImage checkpoints one chase stream in a section of its own.
type chaseImage struct{ c *chaseStream }

func (s chaseImage) Snapshot(cd *checkpoint.Codec) {
	cd.Section("chase")
	s.c.snapshot(cd)
}

// TestChaseCheckpointRoundTrip restores mcf's generator with its chase
// cursor at the first, second, last and a random position of the cycle,
// and requires the restored generator to continue identically.
func TestChaseCheckpointRoundTrip(t *testing.T) {
	spec := mustSpec(t, "mcf")
	chase := -1
	for i, ss := range spec.Streams {
		if ss.Kind == ChaseKind {
			chase = i
		}
	}
	n := len(chaseOf(t, New(spec, 1).(*synth), chase).order)
	for _, pos := range []int{0, 1, n - 1, xrand.New(5).Intn(n)} {
		src := New(spec, 1).(*synth)
		chaseOf(t, src, chase).pos = pos
		img := checkpoint.Encode(src)
		dst := New(spec, 1).(*synth)
		if err := checkpoint.Decode(img, dst); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if got := chaseOf(t, dst, chase).pos; got != pos {
			t.Fatalf("pos %d: restored at position %d", pos, got)
		}
		var a, b Inst
		for k := 0; k < 20000; k++ {
			src.Next(&a)
			dst.Next(&b)
			if a != b {
				t.Fatalf("pos %d: instruction %d differs after restore: %+v vs %+v", pos, k, a, b)
			}
		}
	}
}

// TestChaseCursorBeyondCycle: an image whose chase cursor names a block
// outside the restoring stream's cycle fails with a *ChaseCursorError.
func TestChaseCursorBeyondCycle(t *testing.T) {
	big := newChaseStream(StreamSpec{Kind: ChaseKind, Footprint: 8 * KB, Block: 32}, 0, xrand.New(3))
	small := newChaseStream(StreamSpec{Kind: ChaseKind, Footprint: 4 * KB, Block: 32}, 0, xrand.New(3))
	n := len(small.order)
	for big.order[big.pos] < uint32(n) {
		big.pos++
	}
	err := checkpoint.Decode(checkpoint.Encode(chaseImage{big}), chaseImage{small})
	var ce *ChaseCursorError
	if !errors.As(err, &ce) {
		t.Fatalf("decode error %v, want a *ChaseCursorError", err)
	}
	if ce.Block != big.order[big.pos] || ce.Blocks != n {
		t.Errorf("error %+v, want block %d of %d", *ce, big.order[big.pos], n)
	}
	if small.pos != 0 {
		t.Errorf("failed decode moved the cursor to %d", small.pos)
	}
}

// TestNewAllocatesCycleOnce bounds the host memory of building mcf's
// generator: its chase cycle at 4 B per block plus 32 KB for everything
// else. A permutation of ints or a second table per block would exceed it.
func TestNewAllocatesCycleOnce(t *testing.T) {
	spec := mustSpec(t, "mcf")
	var blocks uint64
	for _, ss := range withDefaults(spec).Streams {
		if ss.Kind == ChaseKind {
			blocks += ss.Footprint / ss.Block
		}
	}
	limit := 4*blocks + 32*KB
	got := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ { // the least of three runs: other goroutines may allocate too
		runtime.ReadMemStats(&before)
		New(spec, 1)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got > limit {
		t.Errorf("New(mcf) allocated %d bytes, want at most %d (4 B per chase block for %d blocks + 32 KB)", got, limit, blocks)
	}
}
