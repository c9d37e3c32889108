package main

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A metric of a layer the workload does not pass through reads 0:
// the run made no such call.
var layerMetrics = []struct{ name, unit string }{
	// spans of the traced machine (miss-heavy, compute-bound)
	{"cpu.self_ns_per_inst", "ns"},
	{"workload.next_ns", "ns"},
	{"memsys.access_calls", "count"},
	{"memsys.hit_ns", "ns"},
	{"memsys.miss_ns", "ns"},
	{"prefetch.onmiss_calls", "count"},
	{"prefetch.onmiss_ns", "ns"},
	{"prefetch.onaccess_ns", "ns"},
	// sim.Machine, checkpoint and experiment calls
	{"sim.warmup_fast_ns_per_inst", "ns"},
	{"sim.measure_ns_per_inst", "ns"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"checkpoint.image_kb", "KB"},
	{"experiment.store_lookup_us", "us"},
	{"experiment.warmups", "count"},
	{"experiment.forks", "count"},
	{"experiment.manifest_hits", "count"},
	// the sweepd HTTP API
	{"sweepd.post_ms", "ms"},
	{"sweepd.result_ms", "ms"},
	{"sweepd.jobs_cached", "count"},
	{"sweepd.jobs_executed", "count"},
	// host-time shares folded from the CPU profile
	{"cpu.share", "fraction"},
	{"memsys.share", "fraction"},
	{"cache.share", "fraction"},
	{"bus.share", "fraction"},
	{"dram.share", "fraction"},
	{"core.share", "fraction"},
	{"workload.share", "fraction"},
	{"checkpoint.share", "fraction"},
	{"runtime.gc_share", "fraction"},
	// simulated counters of one pass over the workload's simulations
	{"cpu.cycles", "count"},
	{"cpu.ipc", "ratio"},
	{"memsys.l1_misses", "count"},
	{"memsys.l2_misses", "count"},
	{"cache.mshr_merges", "count"},
	{"cache.mshr_stalls", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.useful_ratio", "ratio"},
	{"cpu.host_ns_per_sim_cycle", "ns"},
	// the run itself
	{"trace.overhead", "ratio"},
	{"error_rate", "ratio"},
}

// layer sets a per-layer metric with its unit from layerMetrics.
func (b *bench) layer(name string, v float64) {
	for _, m := range layerMetrics {
		if m.name == name {
			b.set(name, m.unit, v)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// finishLayers records the error rate and reads 0 for every layer the
// workload did not pass through.
func (b *bench) finishLayers() {
	b.layer("error_rate", b.errorRate())
	for _, m := range layerMetrics {
		if _, ok := b.metrics[m.name]; !ok {
			b.set(m.name, m.unit, 0)
		}
	}
}

// simCounters reports the simulated counters of one pass.
func (b *bench) simCounters(t counters) {
	b.layer("cpu.cycles", float64(t.Cycles))
	b.layer("cpu.ipc", float64(t.Instructions)/float64(t.Cycles))
	b.layer("memsys.l1_misses", float64(t.L1Misses))
	b.layer("memsys.l2_misses", float64(t.L2Misses))
	b.layer("cache.mshr_merges", float64(t.MSHRMerges))
	b.layer("cache.mshr_stalls", float64(t.MSHRStalls))
	b.layer("prefetch.issued", float64(t.PfIssued))
	if t.PfFills > 0 {
		b.layer("prefetch.useful_ratio", float64(t.PfUseful)/float64(t.PfFills))
	}
}

func (b *bench) shares(s map[string]float64) {
	for name, v := range s {
		b.layer(name, v)
	}
}
