package experiment

import (
	"fmt"
	"io"
	"strings"

	"tagprefetch/internal/stats"
)

// Sweep is one named design-space sweep. Sweeps is the one list of them:
// tcpsweep's -sweep values, the grids tcpsweepd serves, and tcpfigs'
// fig13a and fig13b output all come from it.
type Sweep struct {
	Name string
	Run  func(Options) SweepResult
}

// SweepResult is what one sweep produces: its series, or its table.
type SweepResult struct {
	Series []stats.Series
	Table  *stats.Table
}

// Print writes r as tcpsweep prints it: one series per line, or the
// aligned table.
func (r SweepResult) Print(w io.Writer) {
	for _, s := range r.Series {
		fmt.Fprintln(w, s.String()) //nolint:errcheck // stdout or a bytes.Buffer
	}
	if r.Table != nil {
		r.Table.WriteTo(w) //nolint:errcheck // stdout or a bytes.Buffer
	}
}

func series(f func(Options) stats.Series) func(Options) SweepResult {
	return func(o Options) SweepResult { return SweepResult{Series: []stats.Series{f(o)}} }
}

func table(f func(Options) *stats.Table) func(Options) SweepResult {
	return func(o Options) SweepResult { return SweepResult{Table: f(o)} }
}

// Sweeps lists every sweep in help-text order: Figure 13's two, then the
// DESIGN.md ablations A1-A9.
var Sweeps = []Sweep{
	{"size", func(o Options) SweepResult { return SweepResult{Series: Fig13PHTSize(o)} }},
	{"nbits", series(Fig13IndexBits)},
	{"k", series(AblationTHTDepth)},
	{"assoc", series(AblationPHTAssoc)},
	{"hash", series(AblationHashing)},
	{"targets", series(AblationMultiTarget)},
	{"baselines", table(AblationClassicBaselines)},
	{"critfilter", table(AblationCriticalFilter)},
	{"strideassist", table(AblationStrideAssist)},
	{"placement", table(AblationPlacement)},
	{"branchpred", series(AblationBranchPredictors)},
}

// SweepNames returns the Sweeps names in table order.
func SweepNames() []string {
	names := make([]string, len(Sweeps))
	for i, s := range Sweeps {
		names[i] = s.Name
	}
	return names
}

// LookupSweep returns the named sweep, or an error listing the table.
func LookupSweep(name string) (Sweep, error) {
	for _, s := range Sweeps {
		if s.Name == name {
			return s, nil
		}
	}
	return Sweep{}, fmt.Errorf("unknown sweep %q (want %s)", name, strings.Join(SweepNames(), " | "))
}
