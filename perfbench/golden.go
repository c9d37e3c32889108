package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"tagprefetch/internal/sim"
)

// counters are the simulated statistics of one simulation that the
// correctness gate compares. They are exact: the simulator is
// deterministic for a given seed, so any difference is a changed model or
// a broken engine, never host noise.
type counters struct {
	Instructions uint64 `json:"instructions"`
	Cycles       int64  `json:"cycles"`
	L1Misses     uint64 `json:"l1_misses"`
	L2Misses     uint64 `json:"l2_misses"`
	MSHRMerges   uint64 `json:"mshr_merges"`
	MSHRStalls   uint64 `json:"mshr_stalls"`
	PfIssued     uint64 `json:"prefetch_issued"`
	PfFills      uint64 `json:"prefetch_fills"`
	PfUseful     uint64 `json:"prefetch_useful"`
}

func countersOf(r sim.Result) counters {
	return counters{
		Instructions: r.CPU.Instructions, Cycles: r.CPU.Cycles,
		L1Misses: r.Mem.L1Misses, L2Misses: r.Mem.L2Misses,
		MSHRMerges: r.Mem.MSHRMerges, MSHRStalls: r.Mem.MSHRStalls,
		PfIssued: r.Mem.PrefetchIssued, PfFills: r.Mem.PrefetchFills,
		PfUseful: r.Mem.PrefetchedOriginal,
	}
}

// add accumulates c into the workload totals the per-layer report shows.
func (t *counters) add(c counters) {
	t.Instructions += c.Instructions
	t.Cycles += c.Cycles
	t.L1Misses += c.L1Misses
	t.L2Misses += c.L2Misses
	t.MSHRMerges += c.MSHRMerges
	t.MSHRStalls += c.MSHRStalls
	t.PfIssued += c.PfIssued
	t.PfFills += c.PfFills
	t.PfUseful += c.PfUseful
}

// goldenEntry is the reference output of one workload at one seed: the
// counters of every simulation, keyed "bench/prefetcher", and the SHA-256
// of the rendered output where the workload renders one.
type goldenEntry struct {
	Sims   map[string]counters `json:"sims"`
	Render string              `json:"render_sha256,omitempty"`
}

// goldenSet maps workload → seed → entry.
type goldenSet map[string]map[string]*goldenEntry

// loadGoldens reads the golden file. A missing file is an error (wrapping
// os.ErrNotExist): a run without it would check nothing against the goldens.
func loadGoldens(path string) (goldenSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	var gs goldenSet
	if err := json.Unmarshal(data, &gs); err != nil {
		return nil, fmt.Errorf("golden file %s: %w", path, err)
	}
	return gs, nil
}

func (gs goldenSet) entry(workload string, seed uint64) *goldenEntry {
	return gs[workload][strconv.FormatUint(seed, 10)]
}

// record stores what v observed as the golden entry for workload and seed.
func (gs goldenSet) record(workload string, seed uint64, v *verifier) {
	if gs[workload] == nil {
		gs[workload] = make(map[string]*goldenEntry)
	}
	gs[workload][strconv.FormatUint(seed, 10)] = &goldenEntry{Sims: v.seen, Render: v.render}
}

func (gs goldenSet) save(path string) error {
	data, err := json.MarshalIndent(gs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// verifier checks simulated outputs. Every output must equal the golden
// entry when the seed has one, and must equal what the same run produced
// earlier for the same key — repeats, traced and untraced machines, cold
// and cached grids all describe one deterministic computation.
type verifier struct {
	golden *goldenEntry // nil when the seed has no golden entry
	seen   map[string]counters
	render string
}

func newVerifier(g *goldenEntry) *verifier {
	return &verifier{golden: g, seen: make(map[string]counters)}
}

// sim checks one simulation's counters.
func (v *verifier) sim(key string, c counters) error {
	if v.golden != nil {
		want, ok := v.golden.Sims[key]
		if !ok {
			return fmt.Errorf("%s: no golden counters", key)
		}
		if c != want {
			return fmt.Errorf("%s: counters %+v, golden %+v", key, c, want)
		}
	}
	if prev, ok := v.seen[key]; ok && c != prev {
		return fmt.Errorf("%s: counters %+v differ from this run's earlier %+v", key, c, prev)
	}
	v.seen[key] = c
	return nil
}

// rendered checks a rendered output (sweep series, sweepd result body).
func (v *verifier) rendered(body []byte) error {
	sum := sha256.Sum256(body)
	h := hex.EncodeToString(sum[:])
	if v.golden != nil && v.golden.Render != h {
		return fmt.Errorf("rendered output sha256 %s, golden %s", h, v.golden.Render)
	}
	if v.render != "" && v.render != h {
		return fmt.Errorf("rendered output sha256 %s differs from this run's earlier %s", h, v.render)
	}
	v.render = h
	return nil
}

// total sums the counters of every simulation seen.
func (v *verifier) total() counters {
	var t counters
	for _, c := range v.seen {
		t.add(c)
	}
	return t
}
