package tagprefetch

import (
	"strings"
	"testing"

	"tagprefetch/internal/sim"
)

func quick() RunConfig { return RunConfig{Instructions: 100_000, Warmup: 200_000} }

func TestBenchmarksList(t *testing.T) {
	b := Benchmarks()
	if len(b) != 26 {
		t.Fatalf("benchmarks = %d, want 26", len(b))
	}
	if b[0] != "fma3d" || b[25] != "mcf" {
		t.Errorf("order = %v", b)
	}
}

func TestRunNamedPrefetchers(t *testing.T) {
	for _, p := range []Prefetcher{None, TCP8K, DBCP2M, Stride, NextLine} {
		r, err := Run("art", p, quick())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if r.IPC() <= 0 {
			t.Errorf("%s: IPC = %v", p, r.IPC())
		}
	}
}

func TestRunUnknownPrefetcher(t *testing.T) {
	if _, err := Run("art", Prefetcher("bogus"), quick()); err == nil {
		t.Error("expected error")
	}
	if _, err := Run("bogus", TCP8K, quick()); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestEmptyPrefetcherMeansNone(t *testing.T) {
	f, err := Prefetcher("").Factory()
	if err != nil || f.Name != "none" {
		t.Errorf("empty prefetcher = %q, %v", f.Name, err)
	}
}

// TestSchemeSpellings pins every prefetcher spelling the library or tcpsim
// accepted before the scheme table existed to the Factory.Name it builds:
// the ten constants, the library's "" and tcpsim's "dbcp", in any letter
// case. TCP8M carries Figure 13's label for the same machine, tcp-8M/n10.
func TestSchemeSpellings(t *testing.T) {
	want := map[Prefetcher]string{
		None: "none", TCP8K: "tcp-8K", TCP8M: "tcp-8M/n10", Hybrid8K: "hybrid-8K",
		DBCP2M: "dbcp-2M", Stride: "stride", Stream: "stream", Markov: "markov",
		NextLine: "nextline", GHB: "ghb-pc/dc", "": "none", "dbcp": "dbcp-2M",
	}
	for p, name := range want {
		for _, spelling := range []Prefetcher{p, Prefetcher(strings.ToUpper(string(p)))} {
			f, err := spelling.Factory()
			if err != nil || f.Name != name {
				t.Errorf("Prefetcher(%q).Factory() = %q, %v; want %q", spelling, f.Name, err, name)
			}
		}
	}
	_, err := Prefetcher("tcp9k").Factory()
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	for _, sc := range sim.Schemes {
		if !strings.Contains(err.Error(), sc.Name) {
			t.Errorf("unknown-name error %q does not list %q", err, sc.Name)
		}
	}
}

func TestCustomTCPViaRunConfig(t *testing.T) {
	cfg := quick()
	cfg.CustomTCP = true
	cfg.PHTBytes = 32 * 1024
	cfg.IndexBits = 1
	r, err := Run("swim", TCP8K /* ignored */, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Prefetcher, "32K") {
		t.Errorf("prefetcher = %q", r.Prefetcher)
	}
}

func TestRunTCP(t *testing.T) {
	r, err := RunTCP("swim", TCPConfig{HistoryDepth: 3, PHTSets: 512, PHTWays: 4}, quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0 {
		t.Errorf("IPC = %v", r.IPC())
	}
}

// TestUnsetWarmupIsDefault: Run and RunTCP fill an unset warmup with
// package sim's default, as Profile and every tool do.
func TestUnsetWarmupIsDefault(t *testing.T) {
	unset := RunConfig{Instructions: 20_000}
	set := RunConfig{Instructions: 20_000, Warmup: sim.DefaultWarmup}
	tcp := TCPConfig{HistoryDepth: 3, PHTSets: 512, PHTWays: 4}
	for name, run := range map[string]func(RunConfig) (Result, error){
		"Run":    func(c RunConfig) (Result, error) { return Run("gzip", TCP8K, c) },
		"RunTCP": func(c RunConfig) (Result, error) { return RunTCP("gzip", tcp, c) },
	} {
		a, err := run(unset)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(set)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: RunConfig{} and RunConfig{Warmup: sim.DefaultWarmup} differ:\n%+v\n%+v", name, a, b)
		}
	}
}

func TestImprovementAndIdealL2(t *testing.T) {
	base, err := Run("ammp", None, quick())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quick()
	cfg.IdealL2 = true
	ideal, err := Run("ammp", None, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if Improvement(ideal, base) <= 0 {
		t.Errorf("ideal L2 did not help ammp: %v", Improvement(ideal, base))
	}
}

func TestProfileFacade(t *testing.T) {
	s, err := Profile("swim", quick())
	if err != nil {
		t.Fatal(err)
	}
	if s.Misses == 0 || s.UniqueTags == 0 {
		t.Errorf("summary = %+v", s)
	}
	if _, err := Profile("bogus", quick()); err == nil {
		t.Error("expected error")
	}
}

func TestHeadlineResult(t *testing.T) {
	// The paper's headline: on memory-bound, pattern-rich workloads a tiny
	// 8 KB TCP outperforms no prefetching, and the geomean across a
	// contrasting trio stays positive.
	cfg := RunConfig{Instructions: 300_000, Warmup: 600_000}
	gain := 1.0
	for _, bench := range []string{"swim", "art", "applu"} {
		base, err := Run(bench, None, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := Run(bench, TCP8K, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gain *= tcp.IPC() / base.IPC()
	}
	if gain <= 1.1 {
		t.Errorf("TCP-8K cumulative gain on sweep trio = %v, want > 1.1", gain)
	}
}
