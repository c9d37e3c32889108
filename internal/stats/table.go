package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table renders aligned ASCII tables; each experiment in the harness prints
// one table per paper figure so runs can be compared against the paper rows.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are dropped; missing
// cells are rendered empty.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		cells = cells[:len(t.headers)]
	}
	t.rows = append(t.rows, append([]string(nil), cells...))
}

// AddRowf appends a row formatting each value with %v, floats with 4 digits.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4f", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4f", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(cells...)
}

// Title returns the table title.
func (t *Table) Title() string { return t.title }

// Headers returns the column headers (for machine-readable export).
func (t *Table) Headers() []string { return append([]string(nil), t.headers...) }

// Rows returns a copy of the data rows (for machine-readable export).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	line := func(cells []string) {
		for i, wdt := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", wdt, c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i, wdt := range widths {
		sep[i] = strings.Repeat("-", wdt)
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// WriteCSV renders the table as RFC-4180-style CSV (header row first, no
// title), for plotting the experiment outputs with external tools.
func (t *Table) WriteCSV(w io.Writer) error {
	write := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := write(t.headers); err != nil {
		return err
	}
	for _, row := range t.rows {
		padded := row
		if len(padded) < len(t.headers) {
			padded = append(append([]string(nil), row...),
				make([]string, len(t.headers)-len(row))...)
		}
		if err := write(padded); err != nil {
			return err
		}
	}
	return nil
}

// Series is a labelled (x, y) series, used for figure-style sweeps
// (e.g. Figure 13: mean IPC vs PHT size).
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends one point.
func (s *Series) Add(label string, value float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, value)
}

// String renders the series as "name: label=value, ...".
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", s.Name)
	for i := range s.Labels {
		fmt.Fprintf(&b, " %s=%.4f", s.Labels[i], s.Values[i])
	}
	return b.String()
}
