package experiment

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/branch"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
)

// fig13Config is the canonical Figure 13 grid point the goldens pin: the
// tcpsweep defaults (1M measured, 2M warmup, seed 1) under an 8 KB PHT
// with 2 miss-index bits.
func fig13Config() (bench, factory string, cfg sim.Config) {
	return "swim", sim.TCPWithPHT(8<<10, 2, false).Name,
		sim.Config{Instructions: 1_000_000, Warmup: 2_000_000, Seed: 1}
}

// pointPreimage is the fingerprint preimage of a point as a string.
func pointPreimage(bench, factory string, baseline bool, c sim.Config) string {
	return string(appendPreimage(nil, bench, factory, baseline, c))
}

// TestPointFingerprintGolden pins the exact fingerprint preimage and the
// manifest name it hashes to for a canonical Fig. 13 config. The daemon's
// result cache, the distributed claim protocol and -resume all key on
// these bytes: a field added to (or reordered in) memsys.Config or
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

	fp := pointPreimage(bench, factory, false, cfg)
	if fp != wantFP {
		t.Errorf("fingerprint changed:\n got %q\nwant %q\n(an intentional key-schema change must regenerate this golden — it flushes every existing manifest)", fp, wantFP)
	}
	if name := jobFile(bench, factory, false, cfg); name != wantName {
		t.Errorf("jobFile = %q, want %q", name, wantName)
	}

	// The default fidelity and predictor must stay absent from the
	// preimage (addresses written by builds that predate them keep
	// resolving; naming the default predictor is the default machine), and
	// every non-default value must fork the address with its clause.
	if strings.Contains(fp, "fid=") || strings.Contains(fp, "pred=") {
		t.Errorf("default fingerprint mentions a non-default clause: %q", fp)
	}
	gshare := cfg
	gshare.CPU.Predictor = branch.Default
	if got := pointPreimage(bench, factory, false, gshare); got != wantFP {
		t.Errorf("explicit default predictor fingerprint = %q, want the golden", got)
	}
	for _, tc := range []struct {
		fid    sim.Fidelity
		pred   string
		clause string
		name   string
	}{
		{sim.FidelityFast, "", "|fid=fast", "job-f5fb426cfd34b444.json"},
		{"", "always-taken", "|pred=always-taken", "job-ddabbc35f9c937ed.json"},
		{"", "bimodal", "|pred=bimodal", "job-9cf25ab644efedc8.json"},
		{"", "PAg", "|pred=PAg", "job-d2a9d2812993a9aa.json"},
		{"", "combining", "|pred=combining", "job-a76a77ae50a28084.json"},
		{sim.FidelityFast, "bimodal", "|fid=fast|pred=bimodal", "job-24fbdb0c6997c7c8.json"},
	} {
		c := cfg
		c.WarmupFidelity = tc.fid
		c.CPU.Predictor = tc.pred
		if got := pointPreimage(bench, factory, false, c); got != wantFP+tc.clause {
			t.Errorf("%s: fingerprint = %q, want golden + %s", tc.clause, got, tc.clause)
		}
		if got := jobFile(bench, factory, false, c); got != tc.name {
			t.Errorf("%s: jobFile = %q, want %q", tc.clause, got, tc.name)
		}
	}
}

// TestWarmFileNameGolden pins the on-disk name of a warm-fork image for
// the canonical Fig. 13 config. Warm images persist in sweepd's cache and
// under -checkpoint-dir; a changed name silently orphans every one of them,
// so a change to warmKey or its hash layout must regenerate this golden.
func TestWarmFileNameGolden(t *testing.T) {
	bench, _, cfg := fig13Config()
	cfg.BaselineWarmup = true
	for _, tc := range []struct {
		fid  sim.Fidelity
		pred string
		want string
	}{
		{sim.FidelityFull, "", "warm-swim-f9e4b7569dedc24d.ckpt"},
		{sim.FidelityFast, "", "warm-swim-434d5934096722a7.ckpt"},
		{sim.FidelityFull, branch.Default, "warm-swim-f9e4b7569dedc24d.ckpt"},
		{sim.FidelityFull, "bimodal", "warm-swim-d7b3f817dfd0c663.ckpt"},
		{sim.FidelityFast, "PAg", "warm-swim-4897c5cab4ea700f.ckpt"},
	} {
		c := cfg
		c.WarmupFidelity = tc.fid
		c.CPU.Predictor = tc.pred
		key, ok := warmKeyFor(bench, c)
		if !ok {
			t.Fatalf("%s/%q: canonical warm-fork config is not eligible", tc.fid, tc.pred)
		}
		if got := warmFileName(key); got != tc.want {
			t.Errorf("%s/%q: warmFileName = %q, want %q", tc.fid, tc.pred, got, tc.want)
		}
	}
}

// TestPointNameSeparatesConfigs: every fingerprinted field must fork the
// address — two configs that simulate differently may never share a cache
// entry.
func TestPointNameSeparatesConfigs(t *testing.T) {
	bench, factory, cfg := fig13Config()
	base := jobFile(bench, factory, false, cfg)
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
	c.Mem.MSHRs = 32
	mutate["mem.mshrs"] = c
	c = cfg
	c.CPU.Predictor = "bimodal"
	mutate["cpu.predictor"] = c
	for field, mc := range mutate {
		if name := jobFile(bench, factory, false, mc); name == base {
			t.Errorf("changing %s did not change the point name %s", field, base)
		}
	}
	if jobFile(bench, factory, true, cfg) == base {
		t.Error("baseline flag did not change the point name")
	}
	if jobFile("mcf", factory, false, cfg) == base {
		t.Error("benchmark did not change the point name")
	}
	if jobFile(bench, "other", false, cfg) == base {
		t.Error("factory name did not change the point name")
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
	gname := JobName(grid)
	if want := jobFile(bench, f.Name, false, cfg); gname != want {
		t.Errorf("JobName(grid) = %s, want %s", gname, want)
	}

	bname := JobName(BaselineJobs([]string{bench}, cfg)[0])
	if want := jobFile(bench, sim.NoPrefetch().Name, true, cfg); bname != want {
		t.Errorf("JobName(baseline) = %s, want %s", bname, want)
	}
	if bname == gname {
		t.Error("baseline and grid jobs share an address")
	}
}

// TestJobNamesNameOneMachine plans every sweep of the table plus Figures
// 1, 11, 12 and 14 and requires each content address to name exactly one
// machine: two jobs sharing a JobName must agree on benchmark, baseline
// flag and factory flags, and build prefetchers that are deeply equal. A
// factory label reused for a different configuration would otherwise let
// one grid answer another's points from the shared manifest store, and
// the runner's memo one figure's points from another's.
func TestJobNamesNameOneMachine(t *testing.T) {
	type machine struct {
		bench            string
		baseline         bool
		critFilter, atL2 bool
		hybrid           bool
		pf               prefetch.Prefetcher
		plannedBy        string
	}
	seen := map[string]machine{}
	var plannedBy string
	r := NewRunner(1)
	r.SetPlan(func(j Job) {
		f := j.Factory
		mem := j.Config.Normalized().Mem.WithDefaults()
		geom := mem.L1D
		if f.AtL2 {
			geom = mem.L2
		}
		pf, hybrid := f.Build(geom)
		got := machine{j.Bench, j.Baseline, f.CriticalFilter, f.AtL2, hybrid, pf, plannedBy}
		name := JobName(j)
		prev, ok := seen[name]
		if !ok {
			seen[name] = got
			return
		}
		if prev.bench != got.bench || prev.baseline != got.baseline ||
			prev.critFilter != got.critFilter || prev.atL2 != got.atL2 ||
			prev.hybrid != got.hybrid || !reflect.DeepEqual(prev.pf, got.pf) {
			t.Errorf("%s names two machines: %s %q planned by %s and by %s",
				name, j.Bench, f.Name, prev.plannedBy, plannedBy)
		}
	})
	o := Options{Benches: []string{"swim", "mcf"}, Runner: r}
	for _, sw := range Sweeps {
		plannedBy = sw.Name
		sw.Run(o)
	}
	for _, fig := range []struct {
		name string
		run  func(Options) *stats.Table
	}{
		{"fig1", Fig01IdealL2}, {"fig11", Fig11IPC}, {"fig12", Fig12Traffic}, {"fig14", Fig14Hybrid},
	} {
		plannedBy = fig.name
		fig.run(o)
	}
}

// legacyCPUKey is the core clause's type from when the core's shape was
// a set of config fields; every address renders its zero value.
type legacyCPUKey struct {
	issueWidth, ruuSize, lsqSize             int
	intALU, intMult, fpALU, fpMult, memPorts int
	redirectPenalty                          int64
}

// referencePreimage renders a job's fingerprint preimage with fmt, as
// every address was hashed before the fingerprints were built with
// strconv: %v and %+v of the normalized config's clauses.
func referencePreimage(bench, factory string, baseline bool, c sim.Config) string {
	n := c.Normalized()
	return fmt.Sprintf("%s|%s|%v|%d|%d|%v|%d|%v|%+v|%+v",
		bench, factory, baseline, n.Instructions, n.Warmup, n.NoWarmup, n.Seed,
		n.BaselineWarmup, legacyCPUKey{}, n.Mem.WithDefaults()) +
		referenceClauses(n.WarmupFidelity, n.CPU.Predictor)
}

// referenceClauses renders the non-default fidelity and predictor clauses
// with fmt.
func referenceClauses(fid sim.Fidelity, pred string) string {
	s := ""
	if fid != sim.FidelityFull {
		s += fmt.Sprintf("|fid=%s", fid)
	}
	if pred != branch.Default {
		s += fmt.Sprintf("|pred=%s", pred)
	}
	return s
}

// referenceName hashes preimage with hash/fnv and formats the name with
// fmt.
func referenceName(format, preimage string) string {
	h := fnv.New64a()
	h.Write([]byte(preimage))
	return fmt.Sprintf(format, h.Sum64())
}

// referenceWarmFileName is warmFileName rendered with fmt and hash/fnv.
func referenceWarmFileName(key warmKey) string {
	pre := fmt.Sprintf("%s|%d|%v|%d|%+v|%+v", key.bench, key.warmup, key.noWarmup, key.seed, legacyCPUKey{}, key.mem) +
		referenceClauses(key.fidelity, key.predictor)
	return referenceName("warm-"+key.bench+"-%016x.ckpt", pre)
}

// TestFingerprintsMatchReference requires the strconv-built preimage, the
// manifest name and the warm-image name to equal their fmt renderings for
// every job every sweep plans, at both warmup fidelities, under every
// branch predictor, a non-default memory system and other windows and
// seeds. A field added to memsys.Config or addr.Geometry shows in
// the %+v reference, so it fails here until the appender renders it.
func TestFingerprintsMatchReference(t *testing.T) {
	var jobs []Job
	r := NewRunner(1)
	r.SetPlan(func(j Job) { jobs = append(jobs, j) })
	for _, fid := range []sim.Fidelity{sim.FidelityFull, sim.FidelityFast} {
		for _, sw := range Sweeps {
			sw.Run(Options{WarmupFidelity: fid, Runner: r})
		}
	}
	if len(jobs) == 0 {
		t.Fatal("the sweeps planned no jobs")
	}

	variants := []func(*sim.Config){
		func(*sim.Config) {},
		func(c *sim.Config) {
			c.Mem = memsys.Config{
				L1D: addr.MustGeometry(8<<10, 2, 32), L2: addr.MustGeometry(64<<10, 8, 64),
				L1HitLatency: 2, L2Latency: 9, MemLatency: 120, L1L2BusBytes: 16,
				MemBusBytes: 4, MSHRs: 8, IdealL2: true, PrefetchBus: true, MaxPerMiss: 2,
			}
		},
		func(c *sim.Config) { c.NoWarmup = true },
		func(c *sim.Config) { c.Instructions, c.Warmup, c.Seed = 12_345, 67_890, 7 },
		func(c *sim.Config) { c.BaselineWarmup = !c.BaselineWarmup },
	}
	for _, p := range branch.Predictors {
		variants = append(variants, func(c *sim.Config) { c.CPU.Predictor = p.Name })
	}

	checked := 0
	for _, j := range jobs {
		factory := j.Factory.Name
		for _, v := range variants {
			c := j.Config
			v(&c)
			want := referencePreimage(j.Bench, factory, j.Baseline, c)
			if got := pointPreimage(j.Bench, factory, j.Baseline, c); got != want {
				t.Fatalf("preimage\n got %q\nwant %q", got, want)
			}
			if got, want := jobFile(j.Bench, factory, j.Baseline, c), referenceName("job-%016x.json", want); got != want {
				t.Fatalf("%s: jobFile = %s, want %s", want, got, want)
			}
			if key, ok := warmKeyFor(j.Bench, c); ok {
				if got, want := warmFileName(key), referenceWarmFileName(key); got != want {
					t.Fatalf("%+v: warmFileName = %s, want %s", key, got, want)
				}
			}
			checked++
		}
	}
	t.Logf("%d planned jobs, %d fingerprints checked", len(jobs), checked)
}

// TestFingerprintCoversConfigFields lists every field of the configs the
// fingerprints render. A field added to any of them fails here until
// appendPreimage/appendMachine render it (which moves every address:
// regenerate the goldens) or the list records why it is left out. fmt's
// %+v picked a new field up by itself; the hand-written appender does not,
// and a field that shapes a simulation but not its address would let two
// machines share a manifest. No field is left out today.
func TestFingerprintCoversConfigFields(t *testing.T) {
	for _, tc := range []struct {
		typ    reflect.Type
		fields []string
	}{
		// cpu.Config is the pred= clause (the core's shape is the constant
		// coreClause), and the warmup fidelity is the fid= clause.
		{reflect.TypeOf(sim.Config{}), []string{"CPU", "Mem", "Instructions", "Warmup",
			"NoWarmup", "Seed", "WarmupFidelity", "BaselineWarmup"}},
		{reflect.TypeOf(cpu.Config{}), []string{"Predictor"}},
		{reflect.TypeOf(memsys.Config{}), []string{"L1D", "L2", "L1HitLatency", "L2Latency",
			"MemLatency", "L1L2BusBytes", "MemBusBytes", "MSHRs", "IdealL2", "PrefetchBus", "MaxPerMiss"}},
		{reflect.TypeOf(addr.Geometry{}), []string{"sets", "ways", "blockBytes", "blockShift",
			"indexBits", "indexMask"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			got = append(got, tc.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, tc.fields) {
			t.Errorf("%v fields are %v; the fingerprints render %v.\n"+
				"Render a new field in appendPreimage/appendMachine, or record here why it is left out.", tc.typ, got, tc.fields)
		}
	}
}
