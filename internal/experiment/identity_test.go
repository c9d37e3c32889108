package experiment

import (
	"strings"
	"testing"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
)

// fig13Config is the canonical Figure 13 grid point the goldens pin: the
// tcpsweep defaults (1M measured, 2M warmup, seed 1) under an 8 KB PHT
// with 2 miss-index bits.
func fig13Config() (bench, factory string, cfg sim.Config) {
	return "swim", sim.TCPWithPHT(8<<10, 2, false).Name,
		sim.Config{Instructions: 1_000_000, Warmup: 2_000_000, Seed: 1}
}

// TestPointFingerprintGolden pins the exact fingerprint preimage and the
// manifest name it hashes to for a canonical Fig. 13 config. The daemon's
// result cache, the distributed claim protocol and -resume all key on
// these bytes: a field added to (or reordered in) cpuKey, memsys.Config or
// the preimage layout must change this golden — loudly, here — rather than
// silently splitting the cache so every old manifest stops resolving.
// Regenerating the golden is the deliberate act that acknowledges the
// cache flush.
func TestPointFingerprintGolden(t *testing.T) {
	bench, factory, cfg := fig13Config()

	const wantFP = "swim|tcp-8K/n2|false|1000000|2000000|false|1|false|" +
		"{issueWidth:0 ruuSize:0 lsqSize:0 intALU:0 intMult:0 fpALU:0 fpMult:0 memPorts:0 redirectPenalty:0}|" +
		"{L1D:{sets:1024 ways:1 blockBytes:32 blockShift:5 indexBits:10 indexMask:1023} " +
		"L2:{sets:4096 ways:4 blockBytes:64 blockShift:6 indexBits:12 indexMask:4095} " +
		"L1HitLatency:1 L2Latency:12 MemLatency:70 L1L2BusBytes:32 MemBusBytes:8 MSHRs:64 " +
		"IdealL2:false PrefetchBus:false MaxPerMiss:4}"
	const wantName = "job-aa2edc4736619644.json"

	fp, ok := pointPreimage(bench, factory, false, cfg)
	if !ok {
		t.Fatal("canonical Fig. 13 config is not content-addressable")
	}
	if fp != wantFP {
		t.Errorf("fingerprint changed:\n got %q\nwant %q\n(an intentional key-schema change must regenerate this golden — it flushes every existing manifest)", fp, wantFP)
	}
	name, ok := jobFile(bench, factory, false, cfg)
	if !ok || name != wantName {
		t.Errorf("jobFile = %q, %v; want %q, true", name, ok, wantName)
	}

	// The default fidelity must stay absent from the preimage (addresses
	// written by pre-fidelity builds keep resolving), and the fast engine
	// must fork the address.
	if strings.Contains(fp, "fid=") {
		t.Errorf("default-fidelity fingerprint mentions fid: %q", fp)
	}
	fast := cfg
	fast.WarmupFidelity = sim.FidelityFast
	fastFP, _ := pointPreimage(bench, factory, false, fast)
	if fastFP != wantFP+"|fid=fast" {
		t.Errorf("fast fingerprint = %q, want golden + |fid=fast", fastFP)
	}
	if fastName, _ := jobFile(bench, factory, false, fast); fastName == wantName {
		t.Error("fast-fidelity point shares the full-fidelity address")
	}
}

// TestWarmFileNameGolden pins the on-disk name of a warm-fork image for
// the canonical Fig. 13 config. Warm images persist in sweepd's cache and
// under -checkpoint-dir; a changed name silently orphans every one of them,
// so a change to warmKey or its hash layout must regenerate this golden.
func TestWarmFileNameGolden(t *testing.T) {
	bench, _, cfg := fig13Config()
	cfg.BaselineWarmup = true
	for fid, want := range map[sim.Fidelity]string{
		sim.FidelityFull: "warm-swim-f9e4b7569dedc24d.ckpt",
		sim.FidelityFast: "warm-swim-434d5934096722a7.ckpt",
	} {
		c := cfg
		c.WarmupFidelity = fid
		key, ok := warmKeyFor(bench, c)
		if !ok {
			t.Fatalf("%s: canonical warm-fork config is not eligible", fid)
		}
		if got := warmFileName(key); got != want {
			t.Errorf("%s: warmFileName = %q, want %q", fid, got, want)
		}
	}
	c := cfg
	c.Telemetry = telemetry.NewRun(0)
	if _, ok := warmKeyFor(bench, c); ok {
		t.Error("config with per-run telemetry got a warm key; must be unkeyable")
	}
}

// TestPointNameSeparatesConfigs: every fingerprinted field must fork the
// address — two configs that simulate differently may never share a cache
// entry.
func TestPointNameSeparatesConfigs(t *testing.T) {
	bench, factory, cfg := fig13Config()
	base, ok := jobFile(bench, factory, false, cfg)
	if !ok {
		t.Fatal("base config not content-addressable")
	}
	mutate := map[string]sim.Config{}
	c := cfg
	c.Instructions = 2_000_000
	mutate["instructions"] = c
	c = cfg
	c.Warmup = 1_000_000
	mutate["warmup"] = c
	c = cfg
	c.Seed = 2
	mutate["seed"] = c
	c = cfg
	c.BaselineWarmup = true
	mutate["baseline_warmup"] = c
	c = cfg
	c.CPU.IssueWidth = 8
	mutate["cpu.issue_width"] = c
	c = cfg
	c.Mem.MSHRs = 32
	mutate["mem.mshrs"] = c
	for field, mc := range mutate {
		name, ok := jobFile(bench, factory, false, mc)
		if !ok {
			t.Errorf("%s variant not content-addressable", field)
			continue
		}
		if name == base {
			t.Errorf("changing %s did not change the point name %s", field, base)
		}
	}
	if n, _ := jobFile(bench, factory, true, cfg); n == base {
		t.Error("baseline flag did not change the point name")
	}
	if n, _ := jobFile("mcf", factory, false, cfg); n == base {
		t.Error("benchmark did not change the point name")
	}
	if n, _ := jobFile(bench, "other", false, cfg); n == base {
		t.Error("factory name did not change the point name")
	}
}

// TestPointNameRejectsLiveState: configs carrying behaviour the
// fingerprint cannot capture — a custom predictor instance, a retirement
// callback, per-run telemetry — must be unkeyable, never silently share an
// address with the plain config they otherwise equal.
func TestPointNameRejectsLiveState(t *testing.T) {
	bench, factory, cfg := fig13Config()
	if _, ok := jobFile(bench, factory, false, cfg); !ok {
		t.Fatal("plain config must be content-addressable")
	}

	pred := cfg
	pred.CPU.Predictor = branch.NewBimodal(10)
	retire := cfg
	retire.CPU.OnLoadRetire = func(pc uint64, critical bool) {}
	telem := cfg
	telem.Telemetry = telemetry.NewRun(0)
	for field, lc := range map[string]sim.Config{
		"CPU.Predictor": pred, "CPU.OnLoadRetire": retire, "Telemetry": telem,
	} {
		if name, ok := jobFile(bench, factory, false, lc); ok {
			t.Errorf("config with live-state field %s got address %s; must be unkeyable", field, name)
		}
		if _, ok := pointPreimage(bench, factory, false, lc); ok {
			t.Errorf("config with live-state field %s got a fingerprint; must be unkeyable", field)
		}
	}
}

// TestJobNameMatchesStore: JobName must resolve exactly the manifest the
// ResultStore publishes for that job, for both grid and baseline jobs —
// the daemon schedules on these names, so a drift here detaches the
// scheduler from the store.
func TestJobNameMatchesStore(t *testing.T) {
	bench, _, cfg := fig13Config()
	f := sim.TCPWithPHT(8<<10, 2, false)

	grid := Job{Bench: bench, Factory: f, Config: cfg}
	gname, ok := JobName(grid)
	if !ok {
		t.Fatal("grid job not content-addressable")
	}
	if want, _ := jobFile(bench, f.Name, false, cfg); gname != want {
		t.Errorf("JobName(grid) = %s, want %s", gname, want)
	}

	baseline := Job{Bench: bench, Config: cfg, Baseline: true}
	bname, ok := JobName(baseline)
	if !ok {
		t.Fatal("baseline job not content-addressable")
	}
	if want, _ := jobFile(bench, sim.NoPrefetch().Name, true, cfg); bname != want {
		t.Errorf("JobName(baseline) = %s, want %s", bname, want)
	}
	if bname == gname {
		t.Error("baseline and grid jobs share an address")
	}
}
