package sim

import (
	"reflect"
	"testing"

	"tagprefetch/internal/core"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
)

func quickCfg() Config { return Config{Instructions: 150_000, Warmup: 75_000} }

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := Run("nope", NoPrefetch(), quickCfg()); err == nil {
		t.Error("expected error for unknown benchmark")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRun should panic")
		}
	}()
	MustRun("nope", NoPrefetch(), quickCfg())
}

func TestBaselineRunProducesSaneResult(t *testing.T) {
	r := MustRun("gzip", NoPrefetch(), quickCfg())
	if r.Benchmark != "gzip" || r.Prefetcher != "none" {
		t.Errorf("labels = %q/%q", r.Benchmark, r.Prefetcher)
	}
	if r.CPU.Instructions != 150_000 || r.CPU.Cycles <= 0 {
		t.Errorf("cpu = %+v", r.CPU)
	}
	if r.IPC() <= 0 || r.IPC() > 8 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.Mem.Accesses == 0 || r.L1.Misses == 0 {
		t.Errorf("memory was never exercised: %+v", r.Mem)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := MustRun("swim", TCP8K(), quickCfg())
	b := MustRun("swim", TCP8K(), quickCfg())
	if a.CPU != b.CPU {
		t.Errorf("non-deterministic: %+v vs %+v", a.CPU, b.CPU)
	}
}

func TestIdealL2Helps(t *testing.T) {
	base := MustRun("mcf", NoPrefetch(), quickCfg())
	cfg := quickCfg()
	cfg.Mem = memsys.Config{IdealL2: true}
	ideal := MustRun("mcf", NoPrefetch(), cfg)
	if Improvement(ideal, base) < 0.3 {
		t.Errorf("ideal L2 improvement on mcf = %v, want large", Improvement(ideal, base))
	}
}

func TestIdealL2BarelyMattersForCacheResident(t *testing.T) {
	base := MustRun("fma3d", NoPrefetch(), quickCfg())
	cfg := quickCfg()
	cfg.Mem = memsys.Config{IdealL2: true}
	ideal := MustRun("fma3d", NoPrefetch(), cfg)
	if imp := Improvement(ideal, base); imp > 0.10 {
		t.Errorf("ideal L2 improvement on fma3d = %v, want small", imp)
	}
}

func TestFactoryNames(t *testing.T) {
	cases := map[string]Factory{
		"none":       NoPrefetch(),
		"tcp-8K":     TCP8K(),
		"tcp-8M/n10": TCP8M(),
		"hybrid-8K":  Hybrid8K(),
		"dbcp-2M":    DBCP2M(),
		"stride":     Stride(),
		"stream":     StreamBuffers(),
		"markov":     Markov(),
		"nextline":   NextLine(),
	}
	for want, f := range cases {
		if f.Name != want {
			t.Errorf("factory name = %q, want %q", f.Name, want)
		}
		pf, _ := f.Build(memsys.DefaultConfig().L1D)
		if pf == nil {
			t.Errorf("%s: nil prefetcher", want)
		}
	}
}

func TestTCPStorageBudgets(t *testing.T) {
	k := MustRun("art", TCP8K(), Config{Instructions: 10_000, Warmup: 5_000})
	if k.PrefetcherStorageBits/8 != 8*1024 {
		t.Errorf("tcp-8K storage = %d bytes", k.PrefetcherStorageBits/8)
	}
	d := MustRun("art", DBCP2M(), Config{Instructions: 10_000, Warmup: 5_000})
	if d.PrefetcherStorageBits/8 != 2*1024*1024 {
		t.Errorf("dbcp storage = %d bytes", d.PrefetcherStorageBits/8)
	}
}

func TestCustomFactory(t *testing.T) {
	f := Custom("tiny-tcp", core.Config{PHTSets: 16, PHTWays: 2})
	r := MustRun("art", f, Config{Instructions: 50_000, Warmup: 25_000})
	if r.Prefetcher != "tiny-tcp" {
		t.Errorf("name = %q", r.Prefetcher)
	}
}

func TestTCPImprovesMemoryBoundSweep(t *testing.T) {
	cfg := Config{Instructions: 400_000, Warmup: 200_000}
	base := MustRun("art", NoPrefetch(), cfg)
	tcp := MustRun("art", TCP8K(), cfg)
	if imp := Improvement(tcp, base); imp <= 0 {
		t.Errorf("TCP-8K improvement on art = %v, want positive", imp)
	}
}

func TestFigure12CategoriesSum(t *testing.T) {
	r := MustRun("swim", TCP8K(), quickCfg())
	if r.Mem.PrefetchedOriginal+r.Mem.NonPrefetchedOriginal != r.Mem.L2Demand {
		t.Errorf("Figure 12 categories don't sum: %+v", r.Mem)
	}
}

func TestCriticalFilterFactory(t *testing.T) {
	f := WithCriticalFilter(TCP8K())
	if f.Name != "tcp-8K+cf" || !f.CriticalFilter {
		t.Errorf("factory = %+v", f)
	}
	r := MustRun("swim", f, quickCfg())
	if r.Prefetcher != "tcp-8K+cf" {
		t.Errorf("result prefetcher = %q", r.Prefetcher)
	}
	// Storage now includes the criticality table on top of the 8KB PHT.
	if r.PrefetcherStorageBits <= 8*1024*8 {
		t.Errorf("storage = %d bits, want > PHT alone", r.PrefetcherStorageBits)
	}
}

func TestNoWarmupRunsCold(t *testing.T) {
	cfg := Config{Instructions: 50_000, Warmup: 0}
	r := MustRun("gzip", NoPrefetch(), cfg)
	if r.CPU.Instructions != 50_000 {
		t.Errorf("instructions = %d", r.CPU.Instructions)
	}
	// Cold caches: the very first accesses must miss.
	if r.Mem.L1Misses == 0 {
		t.Error("no misses on a cold run")
	}
}

func TestHybridFactoryAttachesPredictor(t *testing.T) {
	r := MustRun("swim", Hybrid8K(), quickCfg())
	// The hybrid must at least attempt promotions (fills or rejections).
	if r.Mem.PrefetchToL1Fills == 0 && r.Mem.PrefetchL1Rejected == 0 {
		t.Errorf("hybrid never considered promotion: %+v", r.Mem)
	}
}

func TestSeedChangesResults(t *testing.T) {
	a := MustRun("twolf", NoPrefetch(), Config{Instructions: 100_000, Warmup: 50_000, Seed: 1})
	b := MustRun("twolf", NoPrefetch(), Config{Instructions: 100_000, Warmup: 50_000, Seed: 2})
	if a.CPU.Cycles == b.CPU.Cycles {
		t.Error("different seeds produced identical cycle counts (suspicious)")
	}
}

func TestStrideAssistFactoryRuns(t *testing.T) {
	f := Custom("tcp-stride", core.Config{PHTSets: 64, PHTWays: 8, StrideAssist: true})
	r := MustRun("swim", f, quickCfg())
	if r.IPC() <= 0 {
		t.Errorf("IPC = %v", r.IPC())
	}
}

func TestAtL2BoundaryFactory(t *testing.T) {
	f := AtL2Boundary(TCP8K())
	if f.Name != "tcp-8K@l2" || !f.AtL2 {
		t.Errorf("factory = %+v", f)
	}
	r := MustRun("art", f, Config{Instructions: 200_000, Warmup: 400_000})
	if r.IPC() <= 0 {
		t.Errorf("IPC = %v", r.IPC())
	}
	// The L2-boundary prefetcher must actually issue prefetches on a
	// thrash-heavy workload.
	if r.Mem.PrefetchIssued == 0 {
		t.Errorf("no prefetches at L2 boundary: %+v", r.Mem)
	}
}

// TestMeasurementWindowConsistency pins the measured-window accounting:
// every counter group in a Result — Mem, L1, L2 — must cover exactly the
// measured instructions, with warmup activity subtracted. Before the fix,
// L1/L2 were cumulative (warmup included) while Mem was not, so the same
// event counted differently depending on which group it was read from.
func TestMeasurementWindowConsistency(t *testing.T) {
	warm := MustRun("swim", NoPrefetch(), Config{Instructions: 100_000, Warmup: 300_000})
	if warm.L1.Misses != warm.Mem.L1Misses {
		t.Errorf("L1.Misses = %d but Mem.L1Misses = %d; cache stats still cumulative?",
			warm.L1.Misses, warm.Mem.L1Misses)
	}
	if warm.L1.Accesses != warm.Mem.Accesses {
		t.Errorf("L1.Accesses = %d but Mem.Accesses = %d",
			warm.L1.Accesses, warm.Mem.Accesses)
	}
	// Mem.L2Misses counts demand misses only, so the cache-level counter
	// (which also sees writeback traffic) bounds it from above — but both
	// must describe the same window, so the gap stays small.
	if warm.L2.Misses < warm.Mem.L2Misses {
		t.Errorf("L2.Misses = %d below demand-only Mem.L2Misses = %d",
			warm.L2.Misses, warm.Mem.L2Misses)
	}

	// A warmed run's measured window must see strictly less traffic than
	// the whole (warmup+measure) execution it is embedded in.
	whole := MustRun("swim", NoPrefetch(), Config{Instructions: 400_000, Warmup: 0})
	if warm.L1.Accesses >= whole.L1.Accesses {
		t.Errorf("measured-window L1 accesses %d not below whole-run %d",
			warm.L1.Accesses, whole.L1.Accesses)
	}
	if warm.L2.Accesses >= whole.L2.Accesses {
		t.Errorf("measured-window L2 accesses %d not below whole-run %d",
			warm.L2.Accesses, whole.L2.Accesses)
	}
}

// TestConfigIsAPlainValue pins that Config, cpu.Config included, is a
// value: usable as a map key, and holding no func, interface, pointer,
// map, slice or channel anywhere in its fields. A config that carried live
// objects could not be content-addressed — two configs describing
// different machines would print and hash alike.
func TestConfigIsAPlainValue(t *testing.T) {
	// As map keys, a func, map or slice field anywhere fails to compile;
	// the walk below also rejects the comparable pointer and interface.
	_ = map[Config]bool{}
	_ = map[cpu.Config]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Func, reflect.Interface, reflect.Pointer, reflect.UnsafePointer,
			reflect.Map, reflect.Slice, reflect.Chan:
			t.Errorf("%s is a %s; configs must be plain values", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Config", reflect.TypeOf(Config{}))
}
