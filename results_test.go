package tagprefetch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/telemetry"
)

// The claims file: results/claims.json turns the paper-vs-measured
// comparison into data. Each claim names a row of the experiment table
// and a margin, a weighted sum of the row's values whose sign is the
// paper's direction (positive: the paper's winner wins). Its measured
// margin is read from the reference run's -json report
// (results/reference_run.json, seed 1), its tolerance is the largest gap
// between that margin and the same margin at seeds 2-5
// (results/seeds/seed<S>.json, the same window), and its verdict is
// "seed-sensitive" when the winner flips at any seed, else "reproduced"
// when the margin is positive and "deviates" when it is not. A claim's
// window and row are checked against what each report records it ran.
// TestClaimsFile recomputes every claim from the committed reports and
// simulates nothing; TestExperimentsClaimTables holds EXPERIMENTS.md's
// generated tables to the file.

const claimsPath = "results/claims.json"

var seedReports = []int{2, 3, 4, 5}

type claim struct {
	ID        string      `json:"id"`
	Claim     string      `json:"claim"`
	Row       string      `json:"row"`
	Window    string      `json:"window"`
	Paper     string      `json:"paper"`
	Terms     []claimTerm `json:"terms"`
	Measured  float64     `json:"measured"`
	Tolerance float64     `json:"tolerance"`
	Verdict   string      `json:"verdict"`
}

// claimTerm is one value of a claim's margin, times K: a table cell (the
// row whose first column is Bench, in column Col) or a series point (the
// Label point of the series named Series).
type claimTerm struct {
	Bench  string  `json:"bench,omitempty"`
	Col    string  `json:"col,omitempty"`
	Series string  `json:"series,omitempty"`
	Label  string  `json:"label,omitempty"`
	K      float64 `json:"k"`
}

func readClaims(t *testing.T) []claim {
	t.Helper()
	data, err := os.ReadFile(claimsPath)
	if err != nil {
		t.Fatal(err)
	}
	var cs []claim
	if err := json.Unmarshal(data, &cs); err != nil {
		t.Fatalf("%s: %v", claimsPath, err)
	}
	return cs
}

// margin evaluates c's margin over one -json report of `tcpfigs -exp all`.
func (c claim) margin(rep *telemetry.Report) (float64, error) {
	row, err := experiment.Lookup(c.Row)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, tm := range c.Terms {
		v, err := tm.value(rep, row.Title)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.ID, err)
		}
		sum += tm.K * v
	}
	return round4(sum), nil
}

func (tm claimTerm) value(rep *telemetry.Report, title string) (float64, error) {
	if tm.Series != "" {
		for _, s := range rep.Sweeps {
			for i, l := range s.Labels {
				if s.Name == tm.Series && l == tm.Label {
					return s.Values[i], nil
				}
			}
		}
		return 0, fmt.Errorf("no point %q in series %q", tm.Label, tm.Series)
	}
	for _, td := range rep.Tables {
		if td.Title != title {
			continue
		}
		for _, r := range td.Rows {
			for j, h := range td.Headers {
				if r[0] == tm.Bench && h == tm.Col {
					return strconv.ParseFloat(strings.TrimSuffix(r[j], "%"), 64)
				}
			}
		}
	}
	return 0, fmt.Errorf("no cell (%s, %s) in table %q", tm.Bench, tm.Col, title)
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// readReport reads a committed report and requires it to record the
// workload seed it was run at.
func readReport(t *testing.T, path string, seed uint64) *telemetry.Report {
	t.Helper()
	rep, err := telemetry.ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != seed {
		t.Fatalf("%s records seed %d, want %d", path, rep.Seed, seed)
	}
	return rep
}

// reports reads the reference report (seed 1) and the seed reports.
func reports(t *testing.T) (ref *telemetry.Report, seeds []*telemetry.Report) {
	t.Helper()
	ref = readReport(t, "results/reference_run.json", 1)
	for _, s := range seedReports {
		seeds = append(seeds, readReport(t, fmt.Sprintf("results/seeds/seed%d.json", s), uint64(s)))
	}
	return ref, seeds
}

// window renders the window a report records as claims name it, e.g.
// "1M measured after 2M warmup", or "" when it records none.
func window(rep *telemetry.Report) string {
	if rep.Instructions == 0 {
		return ""
	}
	count := func(n uint64) string {
		switch {
		case n%1_000_000 == 0:
			return fmt.Sprintf("%dM", n/1_000_000)
		case n%1_000 == 0:
			return fmt.Sprintf("%dk", n/1_000)
		}
		return strconv.FormatUint(n, 10)
	}
	w := count(rep.Instructions) + " measured after " + count(rep.Warmup) + " warmup"
	if rep.WarmupFidelity != "full" {
		w += " (" + rep.WarmupFidelity + " engine)"
	}
	return w
}

// checkRun requires rep to have run c's row at c's window.
func (c claim) checkRun(rep *telemetry.Report, name string) error {
	if w := window(rep); w != c.Window {
		return fmt.Errorf("%s: window %q, but %s records %q", c.ID, c.Window, name, w)
	}
	if !slices.Contains(rep.Rows, c.Row) {
		return fmt.Errorf("%s: row %s is not among the rows %s records (%v)", c.ID, c.Row, name, rep.Rows)
	}
	return nil
}

// recompute fills each claim's measured margin, tolerance and verdict from
// the reference and seed reports.
func recompute(t *testing.T, cs []claim, ref *telemetry.Report, seeds []*telemetry.Report) []claim {
	t.Helper()
	out := make([]claim, len(cs))
	for i, c := range cs {
		m, err := c.margin(ref)
		if err != nil {
			t.Fatal(err)
		}
		c.Measured, c.Tolerance, c.Verdict = m, 0, "reproduced"
		if m <= 0 {
			c.Verdict = "deviates"
		}
		flips := false
		for _, rep := range seeds {
			ms, err := c.margin(rep)
			if err != nil {
				t.Fatal(err)
			}
			c.Tolerance = max(c.Tolerance, round4(math.Abs(ms-m)))
			flips = flips || (ms > 0) != (m > 0)
		}
		if flips {
			c.Verdict = "seed-sensitive"
		}
		out[i] = c
	}
	return out
}

// TestClaimsFile recomputes every claim from the committed reports and
// requires the file to hold exactly those values, byte for byte as
// encoding/json indents them. On a mismatch it prints the file the
// reports give.
func TestClaimsFile(t *testing.T) {
	have := readClaims(t)
	ref, seeds := reports(t)
	want := recompute(t, have, ref, seeds)
	ids := map[string]bool{}
	for i, c := range have {
		if ids[c.ID] {
			t.Errorf("claim id %q repeats", c.ID)
		}
		ids[c.ID] = true
		if err := c.checkRun(ref, "the reference report"); err != nil {
			t.Error(err)
		}
		for j, rep := range seeds {
			if err := c.checkRun(rep, fmt.Sprintf("the seed %d report", seedReports[j])); err != nil {
				t.Error(err)
			}
		}
		w := want[i]
		if c.Measured != w.Measured || c.Tolerance != w.Tolerance || c.Verdict != w.Verdict {
			t.Errorf("%s: file has measured %v, tolerance %v, verdict %s; the reports give %v, %v, %s",
				c.ID, c.Measured, c.Tolerance, c.Verdict, w.Measured, w.Tolerance, w.Verdict)
		}
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if file, _ := os.ReadFile(claimsPath); !bytes.Equal(file, data) {
		t.Errorf("%s differs from what the reports give; the reports give:\n%s", claimsPath, data)
	}
}

// claimBlock renders the generated EXPERIMENTS.md block for key: the
// claims table of the rows key names (space-separated), or, for
// "deviations", the numbered list of every claim that did not reproduce.
func claimBlock(cs []claim, key string) string {
	var b strings.Builder
	num := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	if key == "deviations" {
		n := 0
		for _, c := range cs {
			if c.Verdict != "reproduced" {
				n++
				fmt.Fprintf(&b, "%d. %s (`%s`, %s). Paper: %s. Measured margin: %s ± %s.\n",
					n, c.Claim, c.ID, c.Verdict, c.Paper, num(c.Measured), num(c.Tolerance))
			}
		}
		return b.String()
	}
	rows := strings.Fields(key)
	b.WriteString("| id | claim | paper | margin | seed spread | verdict |\n|---|---|---|---|---|---|\n")
	for _, c := range cs {
		for _, r := range rows {
			if c.Row == r {
				fmt.Fprintf(&b, "| `%s` | %s | %s | %s | ±%s | %s |\n",
					c.ID, c.Claim, c.Paper, num(c.Measured), num(c.Tolerance), c.Verdict)
			}
		}
	}
	return b.String()
}

// TestExperimentsClaimTables requires every generated block of
// EXPERIMENTS.md, between "<!-- claims:KEY -->" and "<!-- /claims -->",
// to be claimBlock's rendering of the claims file, and every claim to
// appear in one.
func TestExperimentsClaimTables(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	cs := readClaims(t)
	shown := map[string]bool{}
	doc := string(data)
	for {
		i := strings.Index(doc, "<!-- claims:")
		if i < 0 {
			break
		}
		doc = doc[i+len("<!-- claims:"):]
		key, body, ok := strings.Cut(doc, " -->\n")
		end := strings.Index(body, "<!-- /claims -->")
		if !ok || end < 0 {
			t.Fatalf("unterminated claims block %q", key)
		}
		if want := claimBlock(cs, key); body[:end] != want {
			t.Errorf("EXPERIMENTS.md block %q is not generated from %s; want:\n%s", key, claimsPath, want)
		}
		for _, r := range strings.Fields(key) {
			shown[r] = true
		}
		doc = body[end:]
	}
	for _, c := range cs {
		if !shown[c.Row] {
			t.Errorf("claim %s (row %s) appears in no EXPERIMENTS.md block", c.ID, c.Row)
		}
	}
	if !strings.Contains(string(data), "<!-- claims:deviations -->") {
		t.Error("EXPERIMENTS.md has no generated deviation summary")
	}
}
