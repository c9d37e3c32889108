package sim_test

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/sweepd"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// metricNameRE is the registry naming convention: dot-separated
// lower_snake_case.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// metricRoots are the namespaces the reporting pipeline (run reports,
// /metrics exposition, figure extraction) reads. A subsystem that mints a
// new namespace adds it here.
var metricRoots = map[string]bool{"cpu": true, "memsys": true, "prefetch": true, "run": true, "fleet": true, "sweepd": true}

var (
	counterType  = reflect.TypeOf((*telemetry.Counter)(nil))
	gaugeType    = reflect.TypeOf((*telemetry.Gauge)(nil))
	registryType = reflect.TypeOf((*telemetry.Registry)(nil))
)

// TestRegistryWalk builds a fully observed machine for every scheme, a
// sweep daemon and a fleet status server, and walks each object graph:
//   - every metric name follows the naming convention and starts with a
//     known root;
//   - every *telemetry.Counter and *telemetry.Gauge held anywhere in the
//     graph (a struct field or a mirror's slot) is registered under
//     exactly one name, so no counter is counted but never reported;
//   - no two holders share one metric.
func TestRegistryWalk(t *testing.T) {
	spec, err := workload.Spec2000("mcf")
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]any{}
	for _, s := range sim.Schemes {
		f := s.Factory()
		for _, f := range []sim.Factory{f, sim.WithCriticalFilter(f), sim.AtL2Boundary(f)} {
			m, err := sim.NewMachine(spec, f, sim.Config{Instructions: 2_000, Warmup: 2_000})
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(telemetry.NewRun(500))
			m.Run()
			roots["machine "+f.Name] = m
		}
	}
	d, err := sweepd.New(sweepd.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	roots["sweepd.Server"] = d
	roots["fleetobs.Server"] = fleetobs.NewServer(t.TempDir(), nil)

	for label, root := range roots {
		names := map[uintptr][]string{} // metric -> registered names
		holders := map[uintptr][]string{}
		seenReg := map[uintptr]bool{}
		sim.WalkGraph(reflect.ValueOf(root), func(v reflect.Value, path string) bool {
			switch v.Type() {
			case counterType, gaugeType:
				if !v.IsNil() {
					holders[v.Pointer()] = append(holders[v.Pointer()], path)
				}
			case registryType:
				if v.IsNil() {
					return false
				}
				data := v.Elem().FieldByName("data")
				if seenReg[data.Pointer()] {
					return false
				}
				seenReg[data.Pointer()] = true
				for it := data.Elem().FieldByName("metrics").MapRange(); it.Next(); {
					name := it.Key().String()
					names[it.Value().Elem().Pointer()] = append(names[it.Value().Elem().Pointer()], name)
					checkMetricName(t, label, name)
				}
				return false // the registry's own map is not a holder
			}
			return true
		})
		if len(seenReg) == 0 || len(holders) == 0 {
			t.Errorf("%s: walk found %d registries and %d metrics; it is broken", label, len(seenReg), len(holders))
		}
		for p, hs := range holders {
			switch ns := names[p]; {
			case len(ns) != 1:
				t.Errorf("%s: metric held at %s is registered under %d names %v, want 1", label, hs[0], len(ns), ns)
			case len(hs) != 1:
				t.Errorf("%s: metric %s is held by %d fields %v, want 1", label, ns[0], len(hs), hs)
			}
		}
	}
}

func checkMetricName(t *testing.T, label, name string) {
	t.Helper()
	if !metricNameRE.MatchString(name) {
		t.Errorf("%s: metric name %q is not dot-separated lower_snake_case", label, name)
		return
	}
	if root, _, _ := strings.Cut(name, "."); !metricRoots[root] {
		t.Errorf("%s: metric name %q starts with unknown root %q", label, name, root)
	}
}
