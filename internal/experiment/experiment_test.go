package experiment

import (
	"slices"
	"strings"
	"testing"

	"tagprefetch/internal/stats"
)

// tiny returns options small enough for unit tests: three benchmarks with
// contrasting behaviour and short runs.
func tiny() Options {
	return Options{
		Instructions: 60_000,
		Warmup:       120_000,
		Benches:      []string{"fma3d", "art", "mcf"},
	}
}

func TestTable1ContainsPaperParameters(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"128-RUU", "128-LSQ", "8 instructions",
		"32KB, 1-way, 32B blocks, 64 MSHRs", "1MB, 4-way LRU, 64B blocks, 12-cycle",
		"70 cycles", "8 IntALU, 3 IntMult/Div, 6 FPALU, 2 FPMult/Div, 4 Load/Store"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig01ShapesHold(t *testing.T) {
	tab := Fig01IdealL2(tiny())
	out := tab.String()
	if len(tab.Rows()) != 4 { // 3 benches + geomean
		t.Fatalf("rows = %d:\n%s", len(tab.Rows()), out)
	}
	// All benchmark rows present.
	for _, b := range []string{"fma3d", "art", "mcf", "geomean"} {
		if !strings.Contains(out, b) {
			t.Errorf("missing row %q:\n%s", b, out)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	tab := Fig11IPC(tiny())
	if len(tab.Rows()) != 4 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows()), tab.String())
	}
}

func TestFig12CategoriesPresent(t *testing.T) {
	tab := Fig12Traffic(tiny())
	// 3 benches x 2 configs.
	if len(tab.Rows()) != 6 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows()), tab.String())
	}
	if !strings.Contains(tab.String(), "tcp-8K") || !strings.Contains(tab.String(), "tcp-8M") {
		t.Errorf("missing configs:\n%s", tab.String())
	}
}

func TestFig13Sweeps(t *testing.T) {
	o := tiny()
	o.Benches = []string{"art"} // keep the sweep cheap
	series := Fig13PHTSize(o)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Values) != len(PHTSizes) {
			t.Errorf("%s: %d points, want %d", s.Name, len(s.Values), len(PHTSizes))
		}
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("%s[%d] = %v", s.Name, i, v)
			}
		}
	}
	ib := Fig13IndexBits(o)
	if len(ib.Values) != 4 {
		t.Errorf("index-bits points = %d, want 4", len(ib.Values))
	}
}

func TestFig14Runs(t *testing.T) {
	tab := Fig14Hybrid(tiny())
	if len(tab.Rows()) != 4 {
		t.Fatalf("rows = %d:\n%s", len(tab.Rows()), tab.String())
	}
}

func TestProfileFiguresShareOnePass(t *testing.T) {
	o := tiny()
	prof := ProfileAll(o)
	if len(prof) != 3 {
		t.Fatalf("profiles = %d", len(prof))
	}
	// art (dense sweeps over ~3 MB) must show few unique tags; in a short
	// test window the sweeps cover only part of the footprint, so just
	// check the count is small and nonzero. mcf's random-order chase over a
	// similar footprint touches far more tags in the same window.
	artTags := prof["art"].UniqueTags
	if artTags < 2 || artTags > 150 {
		t.Errorf("art unique tags = %d, want small", artTags)
	}
	if prof["mcf"].UniqueTags <= artTags {
		t.Errorf("mcf tags %d <= art tags %d", prof["mcf"].UniqueTags, artTags)
	}
	// mcf (chase) must show far more unique sequences than art (sweeps).
	if prof["mcf"].UniqueSeqs <= prof["art"].UniqueSeqs {
		t.Errorf("mcf seqs %d <= art seqs %d", prof["mcf"].UniqueSeqs, prof["art"].UniqueSeqs)
	}

	tabs := []*stats.Table{
		Fig02TagStats(o, prof), Fig03AddrStats(o, prof), Fig04TagSpread(o, prof),
		Fig05SeqRatio(o, prof), Fig06SeqStats(o, prof), Fig07SeqSpread(o, prof),
		Fig15Strided(o, prof),
	}
	for i, tab := range tabs {
		if len(tab.Rows()) != 3 {
			t.Errorf("figure table %d has %d rows, want 3", i, len(tab.Rows()))
		}
	}
}

func TestFig15SwimMostStrided(t *testing.T) {
	o := Options{Instructions: 150_000, Warmup: 150_000, Benches: []string{"swim", "gcc"}}
	prof := ProfileAll(o)
	if prof["swim"].StridedFrac <= prof["gcc"].StridedFrac {
		t.Errorf("swim strided %.3f <= gcc strided %.3f",
			prof["swim"].StridedFrac, prof["gcc"].StridedFrac)
	}
}

func TestAblationsRun(t *testing.T) {
	o := tiny()
	o.Benches = []string{"art"}
	if s := AblationTHTDepth(o); len(s.Values) != 4 {
		t.Errorf("THT depth points = %d", len(s.Values))
	}
	if s := AblationPHTAssoc(o); len(s.Values) != 5 {
		t.Errorf("assoc points = %d", len(s.Values))
	}
	if s := AblationHashing(o); len(s.Values) != 2 {
		t.Errorf("hash points = %d", len(s.Values))
	}
	if s := AblationMultiTarget(o); len(s.Values) != 3 {
		t.Errorf("multi-target points = %d", len(s.Values))
	}
	if tab := AblationClassicBaselines(o); len(tab.Rows()) != 2 {
		t.Errorf("baselines rows = %d", len(tab.Rows()))
	}
}

func TestPow2Floor(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 2}, {1000, 512}, {1024, 1024}} {
		if got := pow2Floor(c.in); got != c.want {
			t.Errorf("pow2Floor(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNewAblationsRun(t *testing.T) {
	o := tiny()
	o.Benches = []string{"swim"}
	if tab := AblationCriticalFilter(o); len(tab.Rows()) != 1 {
		t.Errorf("critical filter rows = %d", len(tab.Rows()))
	}
	if tab := AblationStrideAssist(o); len(tab.Rows()) != 2 {
		t.Errorf("stride assist rows = %d", len(tab.Rows()))
	}
}

func TestCaptureMisses(t *testing.T) {
	misses, err := CaptureMisses("art", Options{Instructions: 60_000, Warmup: 120_000}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(misses) == 0 {
		t.Fatal("no misses captured")
	}
	if _, err := CaptureMisses("bogus", Options{}, 0); err == nil {
		t.Error("expected error")
	}
	capped, err := CaptureMisses("art", Options{Instructions: 60_000, Warmup: 120_000}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 10 {
		t.Fatalf("capped capture = %d records", len(capped))
	}
	if !slices.Equal(capped, misses[:10]) {
		t.Error("capped capture is not a prefix of the full stream")
	}
}

func TestCoverageComparison(t *testing.T) {
	o := Options{Instructions: 60_000, Warmup: 120_000, Benches: []string{"art", "swim"}}
	tab := CoverageComparison(o)
	if len(tab.Rows()) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	out := tab.String()
	for _, want := range []string{"tcp-8K cov", "tcp-8K acc", "dbcp-2M cov"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing column %q:\n%s", want, out)
		}
	}
}

func TestPlacementAblation(t *testing.T) {
	o := tiny()
	o.Benches = []string{"art"}
	tab := AblationPlacement(o)
	if len(tab.Rows()) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows()))
	}
	if !strings.Contains(tab.String(), "tcp-8K@l2") {
		t.Errorf("missing @l2 column:\n%s", tab.String())
	}
}

func TestBranchPredictorAblation(t *testing.T) {
	o := tiny()
	// crafty is compute-bound with mispredictable branches, so the
	// front-end predictor actually shows up in IPC (memory-bound models
	// hide redirect penalties behind stalls).
	o.Benches = []string{"crafty"}
	o.Instructions, o.Warmup = 120_000, 240_000
	s := AblationBranchPredictors(o)
	if len(s.Values) != 5 {
		t.Fatalf("points = %d", len(s.Values))
	}
	// The useful finding is robustness: the workload models' branch
	// behaviour is mostly-taken loop code, so every predictor (including
	// static always-taken) lands within a narrow band — prefetching
	// conclusions do not hinge on the front-end choice.
	lo, hi := s.Values[0], s.Values[0]
	for _, v := range s.Values {
		if v <= 0 {
			t.Fatalf("non-positive IPC in %v", s.Values)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.15 {
		t.Errorf("predictor spread %v exceeds 15%%: %v", hi/lo, s.Values)
	}
}
