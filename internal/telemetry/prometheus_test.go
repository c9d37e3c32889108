package telemetry

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func promTestRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("run.instructions", "instructions retired").Add(41)
	reg.Gauge("run.ipc", "headline IPC").Set(1.25)
	return reg
}

// TestWritePrometheus pins the full text rendering: family order, HELP/TYPE
// headers, counter/gauge sample shapes and label rendering.
func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	err := WritePrometheus(&b, PromFromRegistry(promTestRegistry(), PromLabel{Name: "bench", Value: "mcf"}))
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP tcp_run_instructions instructions retired
# TYPE tcp_run_instructions counter
tcp_run_instructions{bench="mcf"} 41
# HELP tcp_run_ipc headline IPC
# TYPE tcp_run_ipc gauge
tcp_run_ipc{bench="mcf"} 1.25
`
	if got := b.String(); got != want {
		t.Errorf("rendering mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusMergesSets: the same metric name across two labelled
// sets renders one family header and one sample per set.
func TestWritePrometheusMergesSets(t *testing.T) {
	mk := func(v float64) *Registry {
		r := NewRegistry()
		r.Gauge("run.ipc", "headline IPC").Set(v)
		return r
	}
	var b strings.Builder
	err := WritePrometheus(&b,
		PromFromRegistry(mk(1.5), PromLabel{Name: "bench", Value: "swim"}),
		PromFromRegistry(mk(0.75), PromLabel{Name: "bench", Value: "mcf"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if n := strings.Count(got, "# TYPE tcp_run_ipc gauge"); n != 1 {
		t.Errorf("TYPE headers = %d, want 1:\n%s", n, got)
	}
	for _, line := range []string{
		`tcp_run_ipc{bench="swim"} 1.5`,
		`tcp_run_ipc{bench="mcf"} 0.75`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing sample %q in:\n%s", line, got)
		}
	}
}

// TestPromNameValid: every name obeying the registry naming convention
// (the registry rule: dot-separated lower_snake_case segments) maps onto a
// valid Prometheus metric name, and hostile input degrades safely.
func TestPromNameValid(t *testing.T) {
	promRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	for _, name := range []string{
		"cpu.instructions",
		"memsys.l1.misses",
		"prefetch.stride_predictions",
		"fleet.jobs.done",
		"run.ipc",
		"x",
	} {
		if got := promName(name); !promRE.MatchString(got) {
			t.Errorf("promName(%q) = %q, not a valid Prometheus name", name, got)
		}
	}
	if got := promName("weird name-1"); !promRE.MatchString(got) {
		t.Errorf("promName on hostile input = %q, invalid", got)
	}
	if got := promIdent("9lives"); got != "_lives" {
		t.Errorf("promIdent(9lives) = %q, want leading digit replaced", got)
	}
}

// TestPromHandler: one scrape returns the exposition content type and a
// fresh snapshot of the registry.
func TestPromHandler(t *testing.T) {
	reg := promTestRegistry()
	h := PromHandler(func() []PromSet { return []PromSet{PromFromRegistry(reg)} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, PromContentType)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "tcp_run_instructions 41\n") {
		t.Errorf("scrape missing counter sample:\n%s", body)
	}
}

// TestPromNoAllocWhenUnscraped: attaching an exposition handler must not
// tax the metric hot paths — updates stay allocation-free, and no snapshot
// is taken until a scrape arrives (same zero-cost-when-off discipline as
// Tracer.Emit).
func TestPromNoAllocWhenUnscraped(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("run.instructions", "instructions retired")
	g := reg.Gauge("run.ipc", "headline IPC")
	scrapes := 0
	_ = PromHandler(func() []PromSet {
		scrapes++
		return []PromSet{PromFromRegistry(reg)}
	})
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.0)
	}); n != 0 {
		t.Errorf("metric updates with handler attached allocate %v times per op, want 0", n)
	}
	if scrapes != 0 {
		t.Errorf("collect ran %d times without a scrape, want 0", scrapes)
	}
}
