package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"tagprefetch/internal/sim"
)

// Same-binary microbenchmarks of the manifest path: the content address
// every planned job is hashed to, and a Lookup from a fresh store (a
// cached grid re-run, a resumed figure suite, a new daemon) and from a
// store that already parsed the manifest (a daemon's later requests).
// perfbench times these only inside whole workloads; here they run in a
// loop of one binary, so a change to either is resolved at a few percent.
// Time is reported only; TestManifestPathAllocs gates the allocations.

// lookupFixture saves one real size-sweep result into a fresh directory
// and returns the directory and the point that names it.
func lookupFixture(tb testing.TB) (dir string, j Job) {
	tb.Helper()
	bench, _, cfg := fig13Config()
	f := sim.TCPWithPHT(8<<10, 2, false)
	res := sim.MustRun(bench, f, sim.Config{Instructions: 2_000, Warmup: 2_000, Seed: 1})
	dir = tb.TempDir()
	st, err := NewResultStore(dir, false)
	if err != nil {
		tb.Fatal(err)
	}
	st.Save(bench, f.Name, false, cfg, res)
	return dir, Job{Bench: bench, Factory: f, Config: cfg}
}

func BenchmarkJobName(b *testing.B) {
	bench, _, cfg := fig13Config()
	j := Job{Bench: bench, Factory: sim.TCPWithPHT(8<<10, 2, false), Config: cfg}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		JobName(j)
	}
}

func BenchmarkManifestFirstLookup(b *testing.B) {
	dir, j := lookupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := NewResultStore(dir, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := st.Lookup(j.Bench, j.Factory.Name, false, j.Config); !ok {
			b.Fatal("fixture manifest missed")
		}
	}
}

func BenchmarkManifestMemoLookup(b *testing.B) {
	dir, j := lookupFixture(b)
	st, err := NewResultStore(dir, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Lookup(j.Bench, j.Factory.Name, false, j.Config); !ok {
			b.Fatal("fixture manifest missed")
		}
	}
}

// stringFields counts the string fields of t and its nested structs.
func stringFields(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		switch ft := t.Field(i).Type; ft.Kind() {
		case reflect.String:
			n++
		case reflect.Struct:
			n += stringFields(ft)
		}
	}
	return n
}

// TestManifestPathAllocs gates the allocations of the two per-point costs
// of the manifest path: JobName builds its preimage in a stack buffer and
// allocates only the name it returns, and the fast manifest decode
// allocates only the strings it returns. A manifest the template stopped
// matching (say, a new sim.Result field of a kind it does not decode)
// would go to encoding/json and fail the second gate.
func TestManifestPathAllocs(t *testing.T) {
	bench, _, cfg := fig13Config()
	j := Job{Bench: bench, Factory: sim.TCPWithPHT(8<<10, 2, false), Config: cfg}
	if n := testing.AllocsPerRun(100, func() { JobName(j) }); n > 1 {
		t.Errorf("JobName: %v allocs/op, want <= 1", n)
	}

	res := sim.MustRun(bench, j.Factory, sim.Config{Instructions: 2_000, Warmup: 2_000, Seed: 1})
	data, err := json.MarshalIndent(storedResult{Bench: bench, Factory: j.Factory.Name, Result: res}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n') // as Save writes it
	limit := float64(stringFields(reflect.TypeOf(storedResult{})))
	var sr storedResult
	if n := testing.AllocsPerRun(100, func() {
		if err := parseManifest(data, &sr); err != nil {
			t.Fatal(err)
		}
	}); n > limit {
		t.Errorf("parseManifest: %v allocs/op, want <= %v (one per string field)", n, limit)
	}
}
