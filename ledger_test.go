package tagprefetch

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The bench ledger: each BENCH_<n>.json holds the raw perfbench output of
// every parent/change pair a performance claim cites, and a summary of
// them (per workload, seed and metric: quartiles of each side, the
// parent's IQR, the change/parent median ratio and the pairs the change
// won and lost). TestBenchLedgerSummaries recomputes every summary from
// the raw lines, so a quoted median cannot drift from the runs behind it.

type ledger struct {
	Summary []ledgerSummary `json:"summary"`
	Runs    []ledgerRun     `json:"runs"`
}

type ledgerRun struct {
	Workload string       `json:"workload"`
	Seed     int          `json:"seed"`
	Pair     int          `json:"pair"`
	Side     string       `json:"side"`
	Lines    []string     `json:"lines"`
	Result   ledgerResult `json:"result"`
}

// ledgerResult is perfbench's closing JSON line.
type ledgerResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type ledgerQuartiles struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// ledgerSummary is one summary row: a metric row (Metric set) or a side
// row (Side set) totalling one side's correctness and operation counts.
type ledgerSummary struct {
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`

	Metric           string           `json:"metric"`
	Unit             string           `json:"unit"`
	Better           string           `json:"better"`
	Pairs            int              `json:"pairs"`
	ChangeWins       int              `json:"change_wins"`
	ChangeLosses     int              `json:"change_losses"`
	Parent           *ledgerQuartiles `json:"parent"`
	Change           *ledgerQuartiles `json:"change"`
	ParentIQR        float64          `json:"parent_iqr"`
	ChangeOverParent float64          `json:"change_over_parent"`

	Side       string `json:"side"`
	AllCorrect *bool  `json:"all_correct"`
	Failed     int    `json:"failed"`
	Attempted  int    `json:"attempted"`
}

// quantile is the linearly interpolated quantile p of xs, sorted: the
// value at rank (n-1)p, weighted between its neighbours. The conversions
// keep each product rounded, so no platform fuses them into an FMA and the
// result is the same bits everywhere.
func quantile(xs []float64, p float64) float64 {
	h := float64(len(xs)-1) * p
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	t := h - float64(lo)
	return float64(xs[lo]*(1-t)) + float64(xs[lo+1]*t)
}

func quartiles(xs []float64) *ledgerQuartiles {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ledgerQuartiles{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// resultLine parses the result perfbench printed last among a run's lines.
func resultLine(lines []string) (ledgerResult, error) {
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.HasPrefix(lines[i], "{") {
			var r ledgerResult
			err := json.Unmarshal([]byte(lines[i]), &r)
			return r, err
		}
	}
	return ledgerResult{}, fmt.Errorf("no result line")
}

// summarize recomputes a ledger's summary rows from its runs, keyed by
// workload, seed and metric or side. better names each metric's better
// direction, as BENCHMARK.json declares it.
func summarize(t *testing.T, runs []ledgerRun, better map[string]string) map[string]ledgerSummary {
	type group struct {
		workload string
		seed     int
	}
	pairs := map[group]map[int]map[string]ledgerResult{}
	for _, r := range runs {
		res, err := resultLine(r.Lines)
		if err != nil {
			t.Fatalf("%s seed %d pair %d %s: %v", r.Workload, r.Seed, r.Pair, r.Side, err)
		}
		if !reflect.DeepEqual(res, r.Result) {
			t.Errorf("%s seed %d pair %d %s: result field differs from the raw result line", r.Workload, r.Seed, r.Pair, r.Side)
		}
		g := group{r.Workload, r.Seed}
		if pairs[g] == nil {
			pairs[g] = map[int]map[string]ledgerResult{}
		}
		if pairs[g][r.Pair] == nil {
			pairs[g][r.Pair] = map[string]ledgerResult{}
		}
		if _, dup := pairs[g][r.Pair][r.Side]; dup {
			t.Fatalf("%s seed %d pair %d: two %s runs", r.Workload, r.Seed, r.Pair, r.Side)
		}
		pairs[g][r.Pair][r.Side] = res
	}

	out := map[string]ledgerSummary{}
	for g, byPair := range pairs {
		nums := make([]int, 0, len(byPair))
		for n, sides := range byPair {
			if len(sides) != 2 || sides["parent"].Metrics == nil || sides["change"].Metrics == nil {
				t.Fatalf("%s seed %d pair %d: want one parent and one change run", g.workload, g.seed, n)
			}
			nums = append(nums, n)
		}
		sort.Ints(nums)
		for _, side := range []string{"parent", "change"} {
			row := ledgerSummary{Workload: g.workload, Seed: g.seed, Side: side, AllCorrect: new(bool)}
			*row.AllCorrect = true
			for _, n := range nums {
				r := byPair[n][side]
				*row.AllCorrect = *row.AllCorrect && r.Correct
				row.Failed += r.Failed
				row.Attempted += r.Attempted
			}
			out[fmt.Sprintf("%s/%d/side=%s", g.workload, g.seed, side)] = row
		}
		for metric, m := range byPair[nums[0]]["parent"].Metrics {
			dir, ok := better[metric]
			if !ok {
				t.Fatalf("metric %s is not an end-to-end metric of BENCHMARK.json", metric)
			}
			row := ledgerSummary{Workload: g.workload, Seed: g.seed, Metric: metric,
				Unit: m.Unit, Better: dir, Pairs: len(nums)}
			var p, c []float64
			for _, n := range nums {
				pv, cv := byPair[n]["parent"].Metrics[metric].Value, byPair[n]["change"].Metrics[metric].Value
				p, c = append(p, pv), append(c, cv)
				switch {
				case (dir == "lower" && cv < pv) || (dir == "higher" && cv > pv):
					row.ChangeWins++
				case cv != pv:
					row.ChangeLosses++
				}
			}
			row.Parent, row.Change = quartiles(p), quartiles(c)
			row.ParentIQR = row.Parent.Q3 - row.Parent.Q1
			row.ChangeOverParent = row.Change.Median / row.Parent.Median
			out[fmt.Sprintf("%s/%d/%s", g.workload, g.seed, metric)] = row
		}
	}
	return out
}

func TestBenchLedgerSummaries(t *testing.T) {
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	better := map[string]string{}
	for _, m := range decl.EndToEnd {
		better[m.Name] = m.Better
	}

	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no bench ledger found (%v)", err)
	}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var l ledger
			if err := json.Unmarshal(data, &l); err != nil {
				t.Fatal(err)
			}
			want := summarize(t, l.Runs, better)
			seen := map[string]bool{}
			for _, s := range l.Summary {
				key := fmt.Sprintf("%s/%d/%s", s.Workload, s.Seed, s.Metric)
				if s.Metric == "" {
					key = fmt.Sprintf("%s/%d/side=%s", s.Workload, s.Seed, s.Side)
				}
				if seen[key] {
					t.Errorf("%s: summarized twice", key)
				}
				seen[key] = true
				w, ok := want[key]
				if !ok {
					t.Errorf("%s: summary row has no runs", key)
					continue
				}
				if !reflect.DeepEqual(s, w) {
					got, _ := json.Marshal(s)
					exp, _ := json.Marshal(w)
					t.Errorf("%s: summary\n got %s\nwant %s (recomputed from the runs)", key, got, exp)
				}
			}
			for key := range want {
				if !seen[key] {
					t.Errorf("%s: runs with no summary row", key)
				}
			}
		})
	}
}
