package sim

import (
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/telemetry"
)

// gateRow is one machine configuration the runtime gates drive.
type gateRow struct {
	label string
	f     Factory
	cfg   Config
}

// gateRows lists every Schemes row, the critical-filter and L2-placement
// wrappers, and every branch.Predictors row (under the no-prefetch
// baseline), each at both warmup fidelities. A new scheme or predictor is
// gated by being added to its table.
func gateRows() []gateRow {
	var fs []Factory
	for _, s := range Schemes {
		fs = append(fs, s.Factory())
	}
	fs = append(fs, WithCriticalFilter(TCP8K()), AtL2Boundary(TCP8K()))
	var rows []gateRow
	for _, fid := range []Fidelity{FidelityFull, FidelityFast} {
		base := Config{Instructions: 10_000, Warmup: 20_000, Seed: 1, WarmupFidelity: fid}
		for _, f := range fs {
			rows = append(rows, gateRow{f.Name + "/" + string(fid), f, base})
		}
		for _, p := range branch.Predictors {
			cfg := base
			cfg.CPU.Predictor = p.Name
			rows = append(rows, gateRow{"bp-" + p.Name + "/" + string(fid), NoPrefetch(), cfg})
		}
	}
	return rows
}

// gateStretches runs m through its warmup and measured windows, calling
// check around the second half of each: the first half warms the engine
// and every table, the second is the stretch a gate holds over.
func gateStretches(m *Machine, check func(phase string, stretch func())) {
	w, n := m.cfg.Warmup, m.Total()
	m.RunTo(w / 2)
	check("warmup", func() { m.RunTo(w) })
	m.RunTo(w + (n-w)/2)
	check("measure", func() { m.RunTo(n) })
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	before, after := memStats(fn)
	return after.Mallocs - before.Mallocs
}

// memStats reads the memory statistics around fn. The counts are
// process-wide, so the window opens only once the runtime is quiet: a
// collection finishes first, the work it queues (such as the unique
// package's map cleanup) drains until the allocation count holds still
// for a millisecond (waiting at most 100 ms), and the collector stays off
// inside the window.
func memStats(fn func()) (before, after runtime.MemStats) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for range 100 {
		time.Sleep(time.Millisecond)
		if runtime.ReadMemStats(&after); after.Mallocs == before.Mallocs {
			break
		}
		before = after
	}
	fn()
	runtime.ReadMemStats(&after)
	return before, after
}

// poolGrowthAllowance is the number of allocations the correlation
// tables' pool doublings may make over a run: the sum of GrowthAllowance
// over every prefetch.Table the machine reaches (TCP's PHT, DBCP's and
// Markov's tables), two per doubling from the 4096 frames a table
// reserves up to its sets, as internal/prefetch's TestTableGrowthBounded
// bounds them. Machines without a table get none.
func poolGrowthAllowance(m *Machine) uint64 {
	var allow uint64
	WalkGraph(reflect.ValueOf(m), func(v reflect.Value, _ string) bool {
		if v.CanAddr() {
			if t, ok := v.Addr().Interface().(interface{ GrowthAllowance() uint64 }); ok {
				allow += t.GrowthAllowance()
				return false
			}
		}
		return true
	})
	return allow
}

// TestAdvanceGates: once warm, advancing the machine allocates nothing
// and publishes nothing, on the warmup engine and on the measured-window
// engine, for every row. Each machine runs with telemetry attached and no
// sampler, so the counters and registry mirrors are wired in.
//
// Allocation: the per-instruction step, every cache access and fill, and
// each prefetcher's OnMiss/OnAccess run inside the stretches; the
// correlation tables' bounded pool doublings are the one allowance.
//
// Publication: the machine counts into single-writer fields and publishes
// them to the registry only at its publish points (sampler ticks, the
// warm boundary, Finish), so a registry snapshot cannot change across a
// stretch that holds none of them. An atomic counter bump on a simulated
// path would change it.
func TestAdvanceGates(t *testing.T) {
	for _, r := range gateRows() {
		m := mustMachine(t, "mcf", r.f, r.cfg)
		tel := telemetry.NewRun(0)
		m.Observe(tel)
		var allocs uint64
		gateStretches(m, func(phase string, stretch func()) {
			before := tel.Registry.Snapshot()
			allocs += mallocs(stretch)
			after := tel.Registry.Snapshot()
			if len(after) != len(before) {
				t.Errorf("%s: %s stretch registered metrics: %d before, %d after", r.label, phase, len(before), len(after))
				return
			}
			for i := range after {
				if after[i] != before[i] {
					t.Errorf("%s: %s stretch moved %s from %v to %v with no publish point",
						r.label, phase, after[i].Name, before[i].Value, after[i].Value)
				}
			}
		})
		if allow := poolGrowthAllowance(m); allocs > allow {
			t.Errorf("%s: warmup and measure stretches made %d heap allocations, want at most %d (correlation-table pool doublings)",
				r.label, allocs, allow)
		}
	}
}

// encodeScratchAllocs bounds the allocations encoding a warmed
// no-prefetch machine makes besides its buffer: the codec (1), the memory
// system's section list and the machine's boundary-counter list (2), and
// crc32's table, built on a process's first checksum (1). Section names
// are built at construction and each MSHR file sorts into a scratch slice
// it keeps, so none grows with the image or the component count.
const encodeScratchAllocs = 4

// TestCheckpointEncodeGrowth: the codec doubles its buffer from 64 KB, so
// encoding an image allocates at most the doubling schedule's cumulative
// capacity, 2 x (64 KB << d) for the d doublings the image needs, plus
// 256 KB for the components' own scratch. Growing the buffer by append's
// smaller steps on the per-value path would allocate several times the
// image. The allocation count is the first buffer and its d doublings
// plus encodeScratchAllocs: a value boxed or a string built on the
// per-field path would allocate once per record.
func TestCheckpointEncodeGrowth(t *testing.T) {
	m := mustMachine(t, "mcf", NoPrefetch(), Config{Instructions: 2_000, Warmup: 20_000})
	m.RunTo(21_000)
	var img []byte
	before, after := memStats(func() { img = checkpoint.Encode(m) })
	doublings := bits.Len(uint((len(img) - 1) >> 16))
	if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(64<<10)<<doublings+256<<10); bytes > limit {
		t.Errorf("encoding a %d-byte image allocated %d bytes, want at most %d", len(img), bytes, limit)
	}
	if allocs, limit := after.Mallocs-before.Mallocs, uint64(1+doublings+encodeScratchAllocs); allocs > limit {
		t.Errorf("encoding a %d-byte image made %d heap allocations, want at most %d (%d buffer doublings)",
			len(img), allocs, limit, doublings)
	}
}
