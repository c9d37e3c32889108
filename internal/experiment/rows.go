package experiment

import (
	"fmt"
	"io"
	"strings"

	"tagprefetch/internal/stats"
)

// Row is one experiment: a paper table or figure, or a DESIGN.md
// ablation. Rows is the one list of them: tcpfigs' -exp values, the grids
// tcpsweepd serves and the -gather pass all read it.
type Row struct {
	Name string
	// Title names the row; a table row's title is its table's.
	Title string
	Run   func(Options) Result
}

// Result is what one row produces: its series, or its table.
type Result struct {
	Series []stats.Series
	Table  *stats.Table
}

// Print writes r as a single row prints: one series per line, or the
// aligned table.
func (r Result) Print(w io.Writer) {
	for _, s := range r.Series {
		fmt.Fprintln(w, s.String()) //nolint:errcheck // stdout or a bytes.Buffer
	}
	if r.Table != nil {
		r.Table.WriteTo(w) //nolint:errcheck // stdout or a bytes.Buffer
	}
}

// Rows lists every row: the paper's evaluation in the order `-exp all`
// runs it (the first PaperRows), then the DESIGN.md ablations A1-A9.
var Rows = []Row{
	{"table1", "Table 1: configuration of simulated processor",
		func(Options) Result { return Result{Table: Table1()} }},
	{"fig1", "Figure 1: potential IPC improvement with an ideal L2 data cache",
		func(o Options) Result { return Result{Table: Fig01IdealL2(o)} }},
	{"fig2", "Figure 2: unique tags and tag recurrence in the L1D miss stream",
		func(o Options) Result { return Result{Table: Fig02TagStats(o)} }},
	{"fig3", "Figure 3: unique addresses and address recurrence in the L1D miss stream",
		func(o Options) Result { return Result{Table: Fig03AddrStats(o)} }},
	{"fig4", "Figure 4: sets touched per tag and per-set tag recurrence",
		func(o Options) Result { return Result{Table: Fig04TagSpread(o)} }},
	{"fig5", "Figure 5: observed 3-tag sequences / possible 3-tag sequences",
		func(o Options) Result { return Result{Table: Fig05SeqRatio(o)} }},
	{"fig6", "Figure 6: unique 3-tag sequences and sequence recurrence",
		func(o Options) Result { return Result{Table: Fig06SeqStats(o)} }},
	{"fig7", "Figure 7: sets per 3-tag sequence and per-set sequence recurrence",
		func(o Options) Result { return Result{Table: Fig07SeqSpread(o)} }},
	{"fig11", "Figure 11: IPC improvement, DBCP-2M vs TCP-8K vs TCP-8M",
		func(o Options) Result { return Result{Table: Fig11IPC(o)} }},
	{"fig12", "Figure 12: L2 access categories (normalised to original L2 accesses)",
		func(o Options) Result { return Result{Table: Fig12Traffic(o)} }},
	{"size", "Figure 13 (top): mean IPC vs PHT size",
		func(o Options) Result { return Result{Series: Fig13PHTSize(o)} }},
	{"nbits", "Figure 13 (bottom): mean IPC vs miss-index bits",
		func(o Options) Result { return Result{Series: []stats.Series{Fig13IndexBits(o)}} }},
	{"fig14", "Figure 14: prefetch into L2 (TCP-8K) vs into L1 (Hybrid-8K)",
		func(o Options) Result { return Result{Table: Fig14Hybrid(o)} }},
	{"fig15", "Figure 15: percentage of strided 3-tag sequences",
		func(o Options) Result { return Result{Table: Fig15Strided(o)} }},
	{"coverage", "Prefetcher coverage and accuracy on the L1 miss stream",
		func(o Options) Result { return Result{Table: CoverageComparison(o)} }},

	{"k", "Ablation A1: mean IPC vs THT depth k",
		func(o Options) Result { return Result{Series: []stats.Series{AblationTHTDepth(o)}} }},
	{"assoc", "Ablation A2: mean IPC vs PHT associativity",
		func(o Options) Result { return Result{Series: []stats.Series{AblationPHTAssoc(o)}} }},
	{"hash", "Ablation A3: mean IPC vs PHT hash",
		func(o Options) Result { return Result{Series: []stats.Series{AblationHashing(o)}} }},
	{"targets", "Ablation A4: mean IPC vs targets per PHT entry",
		func(o Options) Result { return Result{Series: []stats.Series{AblationMultiTarget(o)}} }},
	{"baselines", "Ablation A5: TCP-8K vs classic prefetchers (IPC improvement)",
		func(o Options) Result { return Result{Table: AblationClassicBaselines(o)} }},
	{"critfilter", "Ablation A6: critical-miss filter on TCP-8K",
		func(o Options) Result { return Result{Table: AblationCriticalFilter(o)} }},
	{"strideassist", "Ablation A7: strided-sequence assist (Section 6)",
		func(o Options) Result { return Result{Table: AblationStrideAssist(o)} }},
	{"placement", "Ablation A8: prefetcher placement (L1/L2 vs L2/memory boundary)",
		func(o Options) Result { return Result{Table: AblationPlacement(o)} }},
	{"branchpred", "Ablation A9: mean baseline IPC vs branch predictor",
		func(o Options) Result { return Result{Series: []stats.Series{AblationBranchPredictors(o)}} }},
}

// PaperRows is the length of Rows' paper prefix, the rows `tcpfigs -exp
// all` runs.
const PaperRows = 15

// RowNames returns every row name in table order.
func RowNames() []string {
	names := make([]string, len(Rows))
	for i, r := range Rows {
		names[i] = r.Name
	}
	return names
}

// Lookup returns the named row, or an error listing every name.
func Lookup(name string) (Row, error) {
	for _, r := range Rows {
		if r.Name == name {
			return r, nil
		}
	}
	return Row{}, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(RowNames(), " | "))
}
