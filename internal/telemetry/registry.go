// Package telemetry is the simulator's unified observability layer: a
// hierarchical metrics registry every component registers into at
// construction, a cycle-sampled time-series sampler with phase boundaries,
// a structured event tracer with a zero-cost no-op default, and a
// machine-readable run-report exporter. It is the single place the
// experiment harness and the cmd/ binaries read simulator state from —
// the role the central stats framework plays in gem5-class simulators.
//
// Naming convention: metric names are dot-separated component paths,
// lower_snake_case leaves, e.g. "memsys.l1.misses" or
// "prefetch.stride_predictions". Registry.Sub scopes a registry view to a
// path prefix so components name metrics locally.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric is implemented by the metric kinds defined in this package
// (Counter, Gauge). The interface is sealed: components create metrics
// with NewCounter/NewGauge or through a Registry.
type Metric interface {
	// MetricName is the local (unprefixed) metric name.
	MetricName() string
	value(fullName string) MetricValue
}

// Counter is a monotonically increasing uint64 metric. All methods are
// safe for concurrent use.
type Counter struct {
	name, desc string
	v          atomic.Uint64
}

// NewCounter creates a standalone counter (attach with Registry.Attach).
func NewCounter(name, desc string) *Counter {
	return &Counter{name: name, desc: desc}
}

// Inc increments the counter by one.
//
// Counters tick on per-access and per-cycle paths.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store sets the counter to n (used by components that mirror an internal
// total into the registry).
//
// The core mirrors progress counters at sampler ticks.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// MetricName implements Metric.
func (c *Counter) MetricName() string { return c.name }

func (c *Counter) value(full string) MetricValue {
	v := c.v.Load()
	return MetricValue{Name: full, Desc: c.desc, Kind: "counter", Value: float64(v), Count: v}
}

// Mirror publishes a component's single-writer uint64 counters into
// registry Counters. The simulated machine counts into plain fields, so its
// hot paths pay no atomic read-modify-write, and stores the totals into
// the registry at its publish points: each sampler tick just before the
// sample, the warm boundary, Finish and a checkpoint decode. A registry reader sees
// values as fresh as the last publish. Publish must run on the goroutine
// that writes the fields. The zero Mirror mirrors nothing.
type Mirror struct {
	src []*uint64
	dst []*Counter
}

// Bind attaches c to reg and mirrors *src into it from now on, starting
// with the field's current value.
func (m *Mirror) Bind(reg *Registry, src *uint64, c *Counter) {
	c.Store(*src)
	reg.Attach(c)
	m.src = append(m.src, src)
	m.dst = append(m.dst, c)
}

// Publish stores every bound field into its counter.
func (m *Mirror) Publish() {
	for i, s := range m.src {
		m.dst[i].Store(*s)
	}
}

// Gauge is an instantaneous float64 metric. Safe for concurrent use.
type Gauge struct {
	name, desc string
	bits       atomic.Uint64
}

// NewGauge creates a standalone gauge.
func NewGauge(name, desc string) *Gauge {
	return &Gauge{name: name, desc: desc}
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// MetricName implements Metric.
func (g *Gauge) MetricName() string { return g.name }

func (g *Gauge) value(full string) MetricValue {
	return MetricValue{Name: full, Desc: g.desc, Kind: "gauge", Value: g.Value()}
}

// MetricValue is one metric in a registry snapshot (and in run reports).
type MetricValue struct {
	Name  string  `json:"name"`
	Desc  string  `json:"desc,omitempty"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Count carries the exact integer value for counters.
	Count uint64 `json:"count,omitempty"`
}

// registryData is the shared store behind a Registry and its Sub views.
type registryData struct {
	mu      sync.RWMutex
	metrics map[string]Metric
}

// Registry is a hierarchical metrics registry. A Registry value is a view
// onto a shared store scoped to a path prefix; Sub derives narrower views.
// All methods are safe for concurrent use.
type Registry struct {
	data   *registryData
	prefix string // "" or "path." (trailing dot)
}

// NewRegistry creates an empty registry rooted at the empty prefix.
func NewRegistry() *Registry {
	return &Registry{data: &registryData{metrics: make(map[string]Metric)}}
}

// Sub returns a view of the registry scoped under path (e.g. "memsys.l1").
func (r *Registry) Sub(path string) *Registry {
	if path == "" {
		return r
	}
	return &Registry{data: r.data, prefix: r.prefix + path + "."}
}

// Attach registers existing metrics under this view's prefix. A metric
// re-attached under a name that is already registered replaces the old one
// (components recreated between runs keep the latest instance live).
func (r *Registry) Attach(ms ...Metric) {
	r.data.mu.Lock()
	for _, m := range ms {
		r.data.metrics[r.prefix+m.MetricName()] = m
	}
	r.data.mu.Unlock()
}

// Counter returns the counter registered under name, creating it if absent.
// Panics if name is registered as a different metric kind.
func (r *Registry) Counter(name, desc string) *Counter {
	full := r.prefix + name
	r.data.mu.Lock()
	defer r.data.mu.Unlock()
	if m, ok := r.data.metrics[full]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s registered as %T, not counter", full, m))
		}
		return c
	}
	c := NewCounter(name, desc)
	r.data.metrics[full] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, desc string) *Gauge {
	full := r.prefix + name
	r.data.mu.Lock()
	defer r.data.mu.Unlock()
	if m, ok := r.data.metrics[full]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %s registered as %T, not gauge", full, m))
		}
		return g
	}
	g := NewGauge(name, desc)
	r.data.metrics[full] = g
	return g
}

// Reader returns a func that reads the counter registered under name
// within this view, for sampler probes and tests. It reads 0 when no
// counter is registered under name. A reader cannot change the metric: only the
// component holding it writes.
func (r *Registry) Reader(name string) func() float64 {
	r.data.mu.RLock()
	m := r.data.metrics[r.prefix+name]
	r.data.mu.RUnlock()
	if c, ok := m.(*Counter); ok {
		return CounterValue(c)
	}
	return func() float64 { return 0 }
}

// Snapshot returns the current value of every metric under this view's
// prefix, sorted by full name.
func (r *Registry) Snapshot() []MetricValue {
	r.data.mu.RLock()
	names := make([]string, 0, len(r.data.metrics))
	for name := range r.data.metrics {
		if len(name) >= len(r.prefix) && name[:len(r.prefix)] == r.prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]MetricValue, 0, len(names))
	for _, name := range names {
		out = append(out, r.data.metrics[name].value(name))
	}
	r.data.mu.RUnlock()
	return out
}

// Component is implemented by simulator pieces (caches, prefetchers, the
// memory hierarchy) that can register their metrics into a registry view
// and direct discrete events to a tracer. tr may be nil when the caller
// wants metrics only; implementations must keep any stored tracer non-nil
// (use Nop()).
type Component interface {
	AttachTelemetry(reg *Registry, tr *Tracer)
}
