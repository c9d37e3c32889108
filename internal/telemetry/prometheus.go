package telemetry

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) generated directly from
// registry snapshots, so any tcp binary can expose its live metrics on a
// -status-addr listener without taking a client-library dependency.
//
// Metric names follow the registry convention (dot-separated
// lower_snake_case paths, checked over a built machine by internal/sim's
// registry walk), which maps onto valid Prometheus names by replacing dots
// with underscores under a "tcp_" prefix: "memsys.l1.misses" →
// "tcp_memsys_l1_misses". Nothing is collected, rendered, or allocated
// until a scrape actually arrives — attaching an exposition handler to a
// registry is free when unscraped.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPrefix namespaces every exported metric.
const promPrefix = "tcp_"

// PromLabel is one exposition label ({bench="mcf"}).
type PromLabel struct {
	Name, Value string
}

// PromSet is one labelled snapshot: the metrics of one registry exposed
// under a shared label set. A scrape renders one or more sets (e.g. one per
// benchmark run in tcpsim) merged into per-name families.
type PromSet struct {
	Labels  []PromLabel
	Metrics []MetricValue
}

// PromFromRegistry snapshots a registry into a PromSet. Call per scrape:
// the snapshot is taken when the scrape happens, not when the handler is
// attached.
func PromFromRegistry(r *Registry, labels ...PromLabel) PromSet {
	return PromSet{Labels: labels, Metrics: r.Snapshot()}
}

// WritePrometheus renders the sets in the text exposition format. Samples
// of the same metric name across sets are merged into one family (one
// HELP/TYPE header, one sample line per set); families are emitted in
// sorted name order so the output is deterministic.
func WritePrometheus(w io.Writer, sets ...PromSet) error {
	names := make([]string, 0, 64)
	seen := make(map[string]bool, 64)
	for _, set := range sets {
		for _, mv := range set.Metrics {
			if !seen[mv.Name] {
				seen[mv.Name] = true
				names = append(names, mv.Name)
			}
		}
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		writeFamily(bw, name, sets)
	}
	return bw.Flush()
}

// writeFamily renders one metric family: header from the first set that
// carries the name, then one sample per set.
func writeFamily(bw *bufio.Writer, name string, sets []PromSet) {
	pname := promName(name)
	headerDone := false
	for _, set := range sets {
		for _, mv := range set.Metrics {
			if mv.Name != name {
				continue
			}
			if !headerDone {
				headerDone = true
				if mv.Desc != "" {
					bw.WriteString("# HELP ")
					bw.WriteString(pname)
					bw.WriteByte(' ')
					bw.WriteString(escapeHelp(mv.Desc))
					bw.WriteByte('\n')
				}
				bw.WriteString("# TYPE ")
				bw.WriteString(pname)
				bw.WriteByte(' ')
				bw.WriteString(promType(mv.Kind))
				bw.WriteByte('\n')
			}
			writeSample(bw, pname, mv, set.Labels)
		}
	}
}

func writeSample(bw *bufio.Writer, pname string, mv MetricValue, labels []PromLabel) {
	bw.WriteString(pname)
	writeLabels(bw, labels)
	bw.WriteByte(' ')
	if mv.Kind == "counter" {
		bw.WriteString(strconv.FormatUint(mv.Count, 10))
	} else { // gauge and any future kind render their float value
		bw.WriteString(formatPromFloat(mv.Value))
	}
	bw.WriteByte('\n')
}

func writeLabels(bw *bufio.Writer, labels []PromLabel) {
	if len(labels) == 0 {
		return
	}
	sorted := append([]PromLabel(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	bw.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(promIdent(l.Name))
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(l.Value))
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// promName maps a registry metric name onto a valid Prometheus name: dots
// become underscores under the tcp_ prefix.
func promName(name string) string { return promPrefix + promIdent(name) }

// promIdent maps an identifier onto the Prometheus name alphabet
// [a-zA-Z0-9_:] with a non-digit first character; anything else becomes an
// underscore (registry names never contain one).
func promIdent(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promType(kind string) string {
	switch kind {
	case "counter", "gauge":
		return kind
	}
	return "untyped"
}

func formatPromFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// PromHandler serves the exposition format over HTTP. collect is invoked
// once per scrape to snapshot whatever registries the binary wants exposed;
// between scrapes the handler holds no state and costs nothing.
func PromHandler(collect func() []PromSet) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		WritePrometheus(w, collect()...) //nolint:errcheck // client gone mid-scrape is not actionable
	})
}
