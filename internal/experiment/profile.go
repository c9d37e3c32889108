package experiment

import (
	"fmt"

	"tagprefetch/internal/coverage"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/trace"
)

// missStreamLabel is the factory label reserved for miss-stream jobs. It
// names no prefetcher, so a miss-stream job's content address, built in
// the same preimage layout as every grid point's, is its own.
const missStreamLabel = "miss-stream"

// coverageFactories are the prefetchers a miss-stream pass replays its
// stream through, in sim.MissProfile.Coverage order.
var coverageFactories = [len(sim.MissProfile{}.Coverage)]sim.Factory{sim.DBCP2M(), sim.TCP8K(), sim.TCP8M()}

// MissStreamJob is the job that profiles bench's no-prefetch miss stream
// under cfg: one simulation whose result carries the stream's
// sim.MissProfile, which Figures 2-7 and 15 and the coverage table read.
// It resolves through the memo, the manifests, Gather and distributed
// claims like any grid point.
func MissStreamJob(bench string, cfg sim.Config) Job {
	return Job{Bench: bench, Factory: sim.Factory{Name: missStreamLabel}, Config: cfg}
}

// missStream simulates bench without prefetching and feeds the
// measured-window L1 miss stream to the Section 3 profiler and to a
// coverage replay through each coverage factory.
func missStream(bench string, cfg sim.Config) sim.Result {
	geom := cfg.Mem.WithDefaults().L1D
	p := profiler.New(geom, 3)
	var evs [len(coverageFactories)]*coverage.Evaluator
	for i, f := range coverageFactories {
		pf, _ := f.Build(geom)
		evs[i] = coverage.New(geom, pf, 512)
	}
	res, err := sim.ObserveMisses(bench, cfg, nil, func(m trace.Miss) {
		p.Observe(m)
		for _, e := range evs {
			e.Observe(m)
		}
	})
	if err != nil {
		panic(err) // unknown benchmark: preserve MustRun semantics
	}
	res.Profile = &sim.MissProfile{Locality: p.Summarize()}
	for i, e := range evs {
		res.Profile.Coverage[i] = e.Result()
	}
	return res
}

// profiles submits every bench's miss-stream job as one batch and returns
// the profiles in bench order, a zero profile for a point a gather
// missed. The runner's memo shares one pass per bench across every
// profile figure and the coverage table.
func profiles(o Options) []sim.MissProfile {
	jobs := make([]Job, len(o.Benches))
	for i, b := range o.Benches {
		jobs[i] = MissStreamJob(b, o.simConfig())
	}
	out := make([]sim.MissProfile, len(jobs))
	for i, r := range o.Runner.Map(jobs) {
		if r.Profile != nil {
			out[i] = *r.Profile
		}
	}
	return out
}

// ProfileBench runs one benchmark without prefetching and returns the
// Section 3 locality summary of its measured-window L1 miss stream.
func ProfileBench(bench string, o Options) (profiler.Summary, error) {
	o.Benches = []string{bench}
	if err := o.Validate(); err != nil {
		return profiler.Summary{}, err
	}
	return profiles(o.withDefaults())[0].Locality, nil
}

// profileTable renders one Section 3 figure: a row per bench of the
// cells its locality summary gives.
func profileTable(o Options, title string, headers []string, cells func(profiler.Summary) []string) *stats.Table {
	o = o.withDefaults()
	t := stats.NewTable(title, append([]string{"bench"}, headers...)...)
	for i, p := range profiles(o) {
		t.AddRow(append([]string{o.Benches[i]}, cells(p.Locality)...)...)
	}
	return t
}

func count(v uint64) string { return fmt.Sprintf("%d", v) }
func mean(v float64) string { return fmt.Sprintf("%.1f", v) }

// Fig02TagStats reproduces Figure 2: unique tags in the L1 miss stream and
// the mean number of times each tag re-appears.
func Fig02TagStats(o Options) *stats.Table {
	return profileTable(o, "Figure 2: unique tags and tag recurrence in the L1D miss stream",
		[]string{"misses", "unique tags", "mean recurrences/tag"},
		func(s profiler.Summary) []string {
			return []string{count(s.Misses), count(s.UniqueTags), mean(s.TagRecurrence)}
		})
}

// Fig03AddrStats reproduces Figure 3: unique block addresses and their
// recurrence (2-3 orders of magnitude more addresses than tags).
func Fig03AddrStats(o Options) *stats.Table {
	return profileTable(o, "Figure 3: unique addresses and address recurrence in the L1D miss stream",
		[]string{"unique addrs", "mean recurrences/addr", "addrs / tags"},
		func(s profiler.Summary) []string {
			return []string{count(s.UniqueAddrs), mean(s.AddrRecurrence),
				mean(stats.Ratio(float64(s.UniqueAddrs), float64(s.UniqueTags)))}
		})
}

// Fig04TagSpread reproduces Figure 4: the across-set vs within-set split of
// tag recurrences (mean sets per tag, mean appearances per (tag,set)).
func Fig04TagSpread(o Options) *stats.Table {
	return profileTable(o, "Figure 4: sets touched per tag and per-set tag recurrence",
		[]string{"mean sets/tag", "mean recurrences/(tag,set)"},
		func(s profiler.Summary) []string { return []string{mean(s.SetsPerTag), mean(s.TagPerSetRecur)} })
}

// Fig05SeqRatio reproduces Figure 5: observed unique three-tag sequences as
// a percentage of the uniqueTags^3 upper limit.
func Fig05SeqRatio(o Options) *stats.Table {
	return profileTable(o, "Figure 5: observed 3-tag sequences / possible 3-tag sequences",
		[]string{"unique seqs", "upper limit", "ratio"},
		func(s profiler.Summary) []string {
			limit := float64(s.UniqueTags) * float64(s.UniqueTags) * float64(s.UniqueTags)
			return []string{count(s.UniqueSeqs), fmt.Sprintf("%.0f", limit), stats.Percent(s.SeqRatio)}
		})
}

// Fig06SeqStats reproduces Figure 6: unique three-tag sequences and the
// mean number of times each sequence re-appears.
func Fig06SeqStats(o Options) *stats.Table {
	return profileTable(o, "Figure 6: unique 3-tag sequences and sequence recurrence",
		[]string{"windows", "unique seqs", "mean recurrences/seq"},
		func(s profiler.Summary) []string {
			return []string{count(s.SeqWindows), count(s.UniqueSeqs), mean(s.SeqRecurrence)}
		})
}

// Fig07SeqSpread reproduces Figure 7: mean sets per sequence and per-set
// sequence recurrence — the basis for sharing the PHT across sets.
func Fig07SeqSpread(o Options) *stats.Table {
	return profileTable(o, "Figure 7: sets per 3-tag sequence and per-set sequence recurrence",
		[]string{"mean sets/seq", "mean recurrences/(seq,set)"},
		func(s profiler.Summary) []string { return []string{mean(s.SetsPerSeq), mean(s.SeqPerSetRecur)} })
}

// Fig15Strided reproduces Figure 15: the percentage of strided three-tag
// sequences per benchmark (Section 6).
func Fig15Strided(o Options) *stats.Table {
	return profileTable(o, "Figure 15: percentage of strided 3-tag sequences",
		[]string{"strided windows", "strided unique seqs"},
		func(s profiler.Summary) []string {
			return []string{stats.Percent(s.StridedFrac), stats.Percent(s.StridedUniqueFrac)}
		})
}

// CoverageComparison reports each benchmark's miss-stream replay through
// DBCP-2M, TCP-8K and TCP-8M: coverage (misses predicted ahead of time)
// and accuracy (predictions that come true) — the predictor-quality view
// that complements the IPC results of Figure 11.
func CoverageComparison(o Options) *stats.Table {
	o = o.withDefaults()
	headers := []string{"bench", "misses"}
	for _, f := range coverageFactories {
		headers = append(headers, f.Name+" cov", f.Name+" acc")
	}
	t := stats.NewTable("Prefetcher coverage and accuracy on the L1 miss stream", headers...)
	for i, p := range profiles(o) {
		row := []string{o.Benches[i], count(p.Locality.Misses)}
		for _, r := range p.Coverage {
			row = append(row, stats.Percent(r.Coverage()), stats.Percent(r.Accuracy()))
		}
		t.AddRow(row...)
	}
	return t
}
