package sim

import (
	"strings"
	"sync"
	"testing"

	"tagprefetch/internal/core"
	"tagprefetch/internal/telemetry"
)

// memsysCounters lists every counter the memory system registers under
// "memsys", keyed by registry name, with the value the machine's
// cumulative statistics give it.
func memsysCounters(m *Machine) map[string]uint64 {
	ms, l1, l2 := m.mem.Stats(), m.mem.L1Stats(), m.mem.L2Stats()
	want := map[string]uint64{
		"memsys.mshr.merges":                ms.MSHRMerges,
		"memsys.mshr.stalls":                ms.MSHRStalls,
		"memsys.l2.demand":                  ms.L2Demand,
		"memsys.l2.prefetched_original":     ms.PrefetchedOriginal,
		"memsys.l2.non_prefetched_original": ms.NonPrefetchedOriginal,
		"memsys.l2.prefetched_extra":        ms.PrefetchedExtra,
		"memsys.l2.demand_hits":             ms.L2Hits,
		"memsys.l2.demand_misses":           ms.L2Misses,
		"memsys.prefetch.issued":            ms.PrefetchIssued,
		"memsys.prefetch.dropped":           ms.PrefetchDropped,
		"memsys.prefetch.fills":             ms.PrefetchFills,
		"memsys.prefetch.to_l1_fills":       ms.PrefetchToL1Fills,
		"memsys.prefetch.l1_rejected":       ms.PrefetchL1Rejected,
	}
	for prefix, cs := range map[string][10]uint64{
		"memsys.l1.": {l1.Accesses, l1.Hits, l1.Misses, l1.HitsOnPrefetch, l1.LateHits,
			l1.Fills, l1.PrefetchFills, l1.Evictions, l1.Writebacks, l1.UnusedPrefetchEvicted},
		"memsys.l2.": {l2.Accesses, l2.Hits, l2.Misses, l2.HitsOnPrefetch, l2.LateHits,
			l2.Fills, l2.PrefetchFills, l2.Evictions, l2.Writebacks, l2.UnusedPrefetchEvicted},
	} {
		for i, name := range [10]string{"accesses", "hits", "misses", "hits_on_prefetch", "late_hits",
			"fills", "prefetch_fills", "evictions", "writebacks", "unused_prefetch_evicted"} {
			want[prefix+name] = cs[i]
		}
	}
	ts := m.pf.(*core.TCP).Stats()
	for name, v := range map[string]uint64{
		"misses": ts.Misses, "pht.lookups": ts.Lookups, "pht.hits": ts.Hits,
		"predictions": ts.Predictions, "pht.updates": ts.Updates, "pht.allocs": ts.Allocs,
		"pht.evictions": ts.Evictions, "stride_predictions": ts.StridePredictions,
	} {
		want["memsys.prefetch."+name] = v
	}
	return want
}

// TestLiveScrapeMatchesMachineStats runs a telemetry-attached machine on
// one goroutine while another scrapes its registry in a loop, as a
// Prometheus /metrics endpoint does; the test must be clean under -race.
// The machine counts into single-writer fields and publishes them at
// sampler ticks, the warm boundary and Finish, so:
//   - at every tick the published L1 access count equals the cache's own;
//   - no scraped counter ever moves backwards;
//   - after Finish every memsys.* counter equals the cumulative Stats.
func TestLiveScrapeMatchesMachineStats(t *testing.T) {
	tel := telemetry.NewRun(2_000)
	m := mustMachine(t, "mcf", TCP8K(), testConfig())
	m.Observe(tel)

	accesses := tel.Registry.Reader("memsys.l1.accesses")
	ticks := 0
	tel.Sampler.OnSample(func(int64, uint64, []float64) {
		ticks++
		if got, want := uint64(accesses()), m.mem.L1Stats().Accesses; got != want || got == 0 {
			t.Errorf("tick %d: published memsys.l1.accesses %d, cache counts %d", ticks, got, want)
		}
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]uint64{}
		for {
			for _, mv := range telemetry.PromFromRegistry(tel.Registry).Metrics {
				if mv.Kind != "counter" {
					continue
				}
				if mv.Count < last[mv.Name] {
					t.Errorf("scraped %s went from %d to %d", mv.Name, last[mv.Name], mv.Count)
				}
				last[mv.Name] = mv.Count
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	m.Run()
	close(done)
	wg.Wait()

	if ticks == 0 {
		t.Fatal("sampler never ticked")
	}
	want := memsysCounters(m)
	seen := 0
	for _, mv := range tel.Registry.Snapshot() {
		if mv.Kind != "counter" || !strings.HasPrefix(mv.Name, "memsys.") {
			continue
		}
		seen++
		w, ok := want[mv.Name]
		if !ok {
			t.Errorf("registry counter %s has no Stats field in this test", mv.Name)
			continue
		}
		if mv.Count != w {
			t.Errorf("%s = %d after Finish, Stats say %d", mv.Name, mv.Count, w)
		}
	}
	if seen != len(want) {
		t.Errorf("registry holds %d memsys.* counters, want %d", seen, len(want))
	}
}
