package workload

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"tagprefetch/internal/xrand"
)

// mustSpec returns the named benchmark's model.
func mustSpec(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := Spec2000(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestOpClassString(t *testing.T) {
	cases := map[OpClass]string{
		IntALU: "intalu", IntMult: "intmult", FPALU: "fpalu",
		FPMult: "fpmult", Load: "load", Store: "store", Branch: "branch",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if OpClass(99).String() != "opclass(99)" {
		t.Errorf("unknown class string = %q", OpClass(99).String())
	}
	if !Load.IsMem() || !Store.IsMem() || IntALU.IsMem() {
		t.Error("IsMem wrong")
	}
}

func TestNewPanicsOnBadSpec(t *testing.T) {
	mustPanic := func(name string, s Spec) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		New(s, 1)
	}
	mustPanic("no streams", Spec{Name: "x", MemFrac: 0.3})
	mustPanic("no mem", Spec{Name: "x", Streams: []StreamSpec{{Kind: SweepKind}}})
}

func TestDeterminism(t *testing.T) {
	spec := mustSpec(t, "swim")
	a, b := New(spec, 7), New(spec, 7)
	var ia, ib Inst
	for i := 0; i < 5000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestClassMixApproximatesSpec(t *testing.T) {
	spec := mustSpec(t, "gcc")
	g := New(spec, 1)
	counts := map[OpClass]int{}
	var in Inst
	const n = 100000
	for i := 0; i < n; i++ {
		g.Next(&in)
		counts[in.Class]++
	}
	memFrac := float64(counts[Load]+counts[Store]) / n
	if memFrac < spec.MemFrac-0.08 || memFrac > spec.MemFrac+0.08 {
		t.Errorf("mem fraction = %v, spec %v", memFrac, spec.MemFrac)
	}
	brFrac := float64(counts[Branch]) / n
	if brFrac < spec.BranchFrac-0.08 || brFrac > spec.BranchFrac+0.08 {
		t.Errorf("branch fraction = %v, spec %v", brFrac, spec.BranchFrac)
	}
	if counts[FPALU]+counts[FPMult] != 0 {
		t.Errorf("gcc (integer code) generated FP ops")
	}
}

func TestFPWorkloadHasFPOps(t *testing.T) {
	g := New(mustSpec(t, "swim"), 1)
	var in Inst
	fp := 0
	for i := 0; i < 10000; i++ {
		g.Next(&in)
		if in.Class == FPALU || in.Class == FPMult {
			fp++
		}
	}
	if fp == 0 {
		t.Error("swim generated no FP ops")
	}
}

func TestMemOpsHaveAddresses(t *testing.T) {
	g := New(mustSpec(t, "art"), 1)
	var in Inst
	for i := 0; i < 10000; i++ {
		g.Next(&in)
		if in.Class.IsMem() && in.Addr == 0 {
			t.Fatalf("memory op with zero address at %d", i)
		}
		if !in.Class.IsMem() && in.Addr != 0 {
			t.Fatalf("non-memory op with address at %d", i)
		}
	}
}

func TestPCsRecur(t *testing.T) {
	// Loop bodies must reuse the same PCs every iteration (what DBCP and
	// stride prefetchers key on).
	g := New(mustSpec(t, "gzip"), 1)
	var in Inst
	pcs := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		g.Next(&in)
		if in.Class == Load {
			pcs[in.PC]++
		}
	}
	if len(pcs) == 0 || len(pcs) > 64 {
		t.Fatalf("unique load PCs = %d, want a small static set", len(pcs))
	}
	for pc, n := range pcs {
		if n < 100 {
			t.Errorf("load PC %#x appeared only %d times", pc, n)
		}
	}
}

func TestChaseLoadsAreChained(t *testing.T) {
	spec := Spec{
		Name: "chasetest", MemFrac: 0.5, BranchFrac: 0.05,
		Streams: []StreamSpec{{Kind: ChaseKind, Footprint: 1 * MB, Block: 32}},
	}
	g := New(spec, 1)
	var in Inst
	chained := 0
	memOps := 0
	for i := 0; i < 10000; i++ {
		g.Next(&in)
		if in.Class.IsMem() {
			memOps++
			if in.Dep1 > 0 {
				chained++
			}
		}
	}
	// All but the first accesses must carry the chain dependence.
	if chained < memOps-1 || memOps == 0 {
		t.Errorf("chained = %d of %d mem ops", chained, memOps)
	}
}

func TestSweepLoadsAreNotChained(t *testing.T) {
	spec := Spec{
		Name: "sweeptest", MemFrac: 0.5, BranchFrac: 0.05,
		Streams: []StreamSpec{{Kind: SweepKind, Footprint: 1 * MB, Stride: 8}},
	}
	g := New(spec, 1)
	var in Inst
	for i := 0; i < 10000; i++ {
		g.Next(&in)
		if in.Class.IsMem() && in.Dep1 != 0 {
			t.Fatalf("sweep access carries chain dependence at %d", i)
		}
	}
}

func TestBranchOutcomesPredictable(t *testing.T) {
	// A high-predictability workload's branch stream must be learnable:
	// the same (pc, history position) yields the same outcome across body
	// iterations except for the noise fraction.
	spec := mustSpec(t, "swim") // predictability 0.99
	g := New(spec, 1)
	var in Inst
	type key struct {
		pc   uint64
		iter int
	}
	taken := map[uint64][]bool{}
	for i := 0; i < 200000; i++ {
		g.Next(&in)
		if in.Class == Branch {
			taken[in.PC] = append(taken[in.PC], in.Taken)
		}
	}
	_ = key{}
	// The loop-closing branch (at least one PC) must be always taken.
	foundLoop := false
	for _, seq := range taken {
		all := true
		for _, tk := range seq {
			if !tk {
				all = false
				break
			}
		}
		if all && len(seq) > 100 {
			foundLoop = true
		}
	}
	if !foundLoop {
		t.Error("no always-taken loop branch found")
	}
}

func TestCatalogComplete(t *testing.T) {
	if len(IdealOrder) != 26 {
		t.Fatalf("IdealOrder has %d entries, want 26", len(IdealOrder))
	}
	seen := map[string]bool{}
	for _, n := range IdealOrder {
		if seen[n] {
			t.Errorf("duplicate benchmark %q", n)
		}
		seen[n] = true
		s, err := Spec2000(n)
		if err != nil {
			t.Errorf("missing spec %q: %v", n, err)
			continue
		}
		if s.Name != n {
			t.Errorf("spec %q has Name %q", n, s.Name)
		}
		if len(s.Streams) == 0 || s.MemFrac <= 0 {
			t.Errorf("spec %q incomplete", n)
		}
		// Every model must construct and generate without panicking.
		g := New(s, 42)
		var in Inst
		for i := 0; i < 1000; i++ {
			g.Next(&in)
		}
	}
	if len(specs) != 26 {
		t.Errorf("catalog has %d specs, want 26", len(specs))
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Spec2000("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestNamesAndSortedNames(t *testing.T) {
	n := Names()
	if len(n) != 26 || n[0] != "fma3d" || n[25] != "mcf" {
		t.Errorf("Names() = %v", n)
	}
	// Sorted, the names are strictly increasing: no benchmark is listed
	// twice.
	sn := slices.Clone(n)
	slices.Sort(sn)
	for i := 1; i < len(sn); i++ {
		if sn[i-1] >= sn[i] {
			t.Errorf("%q listed twice", sn[i])
		}
	}
	for _, name := range n {
		if _, err := Spec2000(name); err != nil {
			t.Error(err)
		}
	}
}

func TestStreamFootprints(t *testing.T) {
	// Each stream must stay within its own base region (1<<28 apart).
	for _, name := range []string{"mcf", "swim", "art", "twolf"} {
		spec := mustSpec(t, name)
		g := New(spec, 9)
		var in Inst
		for i := 0; i < 50000; i++ {
			g.Next(&in)
			if !in.Class.IsMem() {
				continue
			}
			if in.Addr < 1<<33 {
				t.Fatalf("%s: address %#x below stream base region", name, in.Addr)
			}
		}
	}
}

func TestColumnStreamStridedTags(t *testing.T) {
	// Consecutive column-walk accesses must land in the same L1 set with
	// constant tag stride (the Figure 15 pattern).
	ss := StreamSpec{Kind: ColumnKind, Footprint: 2 * MB, RowStride: 32 * KB, Rows: 16, Block: 32}
	st := newStream(withDefaults(Spec{
		Name: "c", MemFrac: 0.5, Streams: []StreamSpec{ss},
	}).Streams[0], 1<<33, xrand.New(1))
	var prev uint64
	for i := 0; i < 16; i++ {
		a, chained := st.next()
		if chained {
			t.Fatal("column stream must not chain")
		}
		if i > 0 && a-prev != 32*KB {
			t.Fatalf("stride = %d, want 32KB", a-prev)
		}
		prev = a
	}
}

func TestChasePermutationCyclesAllBlocks(t *testing.T) {
	ss := StreamSpec{Kind: ChaseKind, Footprint: 64 * KB, Block: 32}
	st := newStream(withDefaults(Spec{
		Name: "c", MemFrac: 0.5, Streams: []StreamSpec{ss},
	}).Streams[0], 0, xrand.New(5))
	n := 64 * KB / 32
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		a, _ := st.next()
		if seen[a] {
			t.Fatalf("block %#x revisited before cycle completed (i=%d)", a, i)
		}
		seen[a] = true
	}
	if len(seen) != n {
		t.Fatalf("visited %d blocks, want %d", len(seen), n)
	}
	// Second cycle revisits in the same order.
	a0, _ := st.next()
	if !seen[a0] {
		t.Error("second cycle left the footprint")
	}
}

func TestHotStreamStaysInL1(t *testing.T) {
	ss := StreamSpec{Kind: HotKind, Footprint: 64 * KB, Stride: 8} // clamped to 24KB
	st := newStream(withDefaults(Spec{
		Name: "h", MemFrac: 0.5, Streams: []StreamSpec{ss},
	}).Streams[0], 1<<33, xrand.New(1))
	lo, hi := uint64(1)<<34, uint64(0)
	for i := 0; i < 10000; i++ {
		a, _ := st.next()
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo > 24*KB {
		t.Errorf("hot stream spans %d bytes, want <= 24KB", hi-lo)
	}
}

func TestApportionProportions(t *testing.T) {
	streams := []StreamSpec{{Weight: 30}, {Weight: 1}, {Weight: 1}}
	got := apportion(16, streams)
	counts := map[int]int{}
	for _, s := range got {
		counts[s]++
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Errorf("minor streams lost representation: %v", counts)
	}
	if counts[0] != 14 {
		t.Errorf("major stream slots = %d, want 14", counts[0])
	}
	if len(got) != 16 {
		t.Errorf("total = %d", len(got))
	}
}

func TestApportionExactSplit(t *testing.T) {
	streams := []StreamSpec{{Weight: 2}, {Weight: 1}}
	got := apportion(9, streams)
	counts := map[int]int{}
	for _, s := range got {
		counts[s]++
	}
	if counts[0] != 6 || counts[1] != 3 {
		t.Errorf("counts = %v, want 6/3", counts)
	}
	// Interleaved: the first two slots must not both be stream 1.
	if got[0] == 1 && got[1] == 1 {
		t.Errorf("not interleaved: %v", got)
	}
}

func TestThrottledStreamRate(t *testing.T) {
	inner := &sweepStream{base: 0, footprint: 1 << 20, stride: 32}
	th := &throttled{inner: inner, every: 4}
	advances := 0
	var prev uint64
	for i := 0; i < 100; i++ {
		a, _ := th.next()
		if i > 0 && a != prev {
			advances++
		}
		prev = a
	}
	// 100 activations at every=4: ~25 advances.
	if advances < 20 || advances > 30 {
		t.Errorf("advances = %d, want ~25", advances)
	}
}

func TestThrottledChaseKeepsChainOnlyOnAdvance(t *testing.T) {
	spec := withDefaults(Spec{Name: "t", MemFrac: 0.5, Streams: []StreamSpec{
		{Kind: ChaseKind, Footprint: 64 * KB, Block: 32, Every: 3},
	}})
	st := newStream(spec.Streams[0], 0, xrand.New(1))
	chainedCount, total := 0, 300
	for i := 0; i < total; i++ {
		_, chained := st.next()
		if chained {
			chainedCount++
		}
	}
	// Advances happen once per `every`: only those carry the dependence.
	if chainedCount < total/4 || chainedCount > total/2 {
		t.Errorf("chained = %d of %d", chainedCount, total)
	}
}

func TestLeakStreamsKeepMissRatesLow(t *testing.T) {
	// Benchmarks with Every-throttled leak streams must still have sane
	// class mixes and addresses (regression for the throttle wrapper).
	for _, name := range []string{"equake", "bzip2", "lucas", "vpr"} {
		g := New(mustSpec(t, name), 11)
		var in Inst
		mem := 0
		for i := 0; i < 20000; i++ {
			g.Next(&in)
			if in.Class.IsMem() {
				mem++
				if in.Addr == 0 {
					t.Fatalf("%s: zero address", name)
				}
			}
		}
		if mem == 0 {
			t.Fatalf("%s: no memory ops", name)
		}
	}
}

// TestNewSharedSpecConcurrently builds generators from one Spec on several
// goroutines, as a parallel grid does with a benchmark's catalog Spec.
// Under -race it fails if New writes defaults into the caller's Streams
// backing array; without -race the unchanged-streams check catches it.
func TestNewSharedSpecConcurrently(t *testing.T) {
	spec := Spec{Name: "shared", MemFrac: 0.3, Streams: []StreamSpec{
		{Kind: SweepKind},
		{Kind: ChaseKind, Footprint: 1 << 16},
		{Kind: ColumnKind, Weight: 2},
	}}
	want := append([]StreamSpec(nil), spec.Streams...)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var inst Inst
			g := New(spec, seed)
			for j := 0; j < 100; j++ {
				g.Next(&inst)
			}
		}(uint64(i))
	}
	wg.Wait()
	if !reflect.DeepEqual(spec.Streams, want) {
		t.Errorf("New modified the caller's streams:\n got %+v\nwant %+v", spec.Streams, want)
	}
}
