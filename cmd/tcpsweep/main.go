// Command tcpsweep explores the TCP design space: the Figure 13 PHT-size
// and index-bits sweeps, and the DESIGN.md ablations (THT depth, PHT
// associativity, hash function, multi-target entries).
//
//	tcpsweep -sweep size               # Figure 13 (top)
//	tcpsweep -sweep nbits              # Figure 13 (bottom)
//	tcpsweep -sweep k -benches swim    # THT depth on one benchmark
//	tcpsweep -sweep size -json out.json   # machine-readable sweep curves
//	tcpsweep -sweep size -jobs 1          # strictly serial execution
//	tcpsweep -sweep size -warmfork -checkpoint-dir ckpt   # warm once, fork grid
//	tcpsweep -sweep size -checkpoint-dir ckpt -resume     # resume a killed sweep
//
// Several hosts sharing storage can split one grid (docs/DISTRIBUTED.md):
//
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id a
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id b
//	tcpsweep -sweep size -checkpoint-dir shared -gather   # assemble output
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/profiling"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run()) }

func run() int {
	var (
		sweep    = flag.String("sweep", "size", "sweep: size | nbits | k | assoc | hash | targets | baselines | critfilter | strideassist | placement | branchpred")
		n        = flag.Uint64("n", 1_000_000, "measured instructions per run")
		warm     = flag.Uint64("warmup", 2_000_000, "warmup instructions per run")
		fidelity = flag.String("warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		bench    = flag.String("benches", "", "comma-separated benchmark subset (default all 26)")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")

		jsonOut    = flag.String("json", "", "write the sweep's curves and tables as a machine-readable report to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file")

		warmFork = flag.Bool("warmfork", false, "run every warmup under the no-prefetch baseline and fork grid points from one warm checkpoint per benchmark")
		ckptDir  = flag.String("checkpoint-dir", "", "persist warm checkpoints and per-job result manifests in this directory")
		resume   = flag.Bool("resume", false, "answer already-completed jobs from -checkpoint-dir manifests instead of re-simulating")

		workers  = flag.Int("workers", 0, "join a distributed sweep splitting this grid over -checkpoint-dir (the value is advisory: any number of workers may cooperate)")
		workerID = flag.String("worker-id", "", "unique id for this worker in a distributed sweep (default hostname-pid; requires -workers)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second, "heartbeat staleness horizon before a crashed worker's job leases may be stolen")
		gather   = flag.Bool("gather", false, "assemble a completed distributed sweep from -checkpoint-dir manifests without simulating; errors if any job is missing")

		statusAddr = flag.String("status-addr", "", "serve live fleet status over -checkpoint-dir on this address (/status JSON, /events SSE, /metrics Prometheus) while the sweep runs")
		flight     = flag.Bool("flight", true, "record claim-protocol events to per-job flight logs in -checkpoint-dir (worker mode; replay with tcpstatus -timeline)")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep:", err)
		return 1
	}
	defer stopProf()

	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep: -warmup-fidelity:", err)
		return 2
	}
	if err := (sim.Config{Instructions: *n, Warmup: *warm, Seed: *seed,
		WarmupFidelity: fid}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep:", err)
		return 2
	}
	workerMode := *workers > 0 || *workerID != ""
	if err := distrib.ValidateWorkerFlags(*workers, *workerID, *leaseTTL); err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep:", err)
		return 2
	}
	switch {
	case *resume && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpsweep: -resume requires -checkpoint-dir")
		return 2
	case workerMode && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpsweep: -workers/-worker-id require -checkpoint-dir (the shared directory is the coordination medium)")
		return 2
	case *gather && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpsweep: -gather requires -checkpoint-dir")
		return 2
	case *gather && workerMode:
		fmt.Fprintln(os.Stderr, "tcpsweep: -gather and -workers are mutually exclusive (gather assembles after the workers finish)")
		return 2
	case *statusAddr != "" && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpsweep: -status-addr requires -checkpoint-dir (status is read from the shared directory)")
		return 2
	}

	o := experiment.Options{Instructions: *n, Warmup: *warm, Seed: *seed,
		WarmupFidelity: fid, BaselineWarmup: *warmFork,
		Runner: experiment.NewRunner(*jobs)}
	if *bench != "" {
		o.Benches = strings.Split(*bench, ",")
	}

	var claims *distrib.Store
	if *ckptDir != "" {
		benches := o.Benches
		if len(benches) == 0 {
			benches = workload.Names()
		}
		// The default engine is recorded as the field's absence, so default
		// runs write grid.json byte-identical to pre-fidelity builds.
		fidDesc := ""
		if fid != sim.FidelityFull {
			fidDesc = string(fid)
		}
		desc := experiment.GridDesc{Tool: "tcpsweep", Experiment: *sweep,
			Instructions: *n, Warmup: *warm, WarmupFidelity: fidDesc,
			Seed: *seed, Benches: benches, WarmFork: *warmFork}
		// Consumers of existing manifests (resume, workers, gather) must
		// match the recorded grid; a fresh recording run replaces it.
		if err := experiment.EnsureGrid(*ckptDir, desc, !*resume && !workerMode && !*gather); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsweep:", err)
			var gm *experiment.GridMismatchError
			if errors.As(err, &gm) {
				return 2
			}
			return 1
		}

		o.Runner.SetCheckpointDir(*ckptDir)
		// Workers and gather always consult manifests: they are the
		// publication medium of a distributed sweep.
		store, err := experiment.NewResultStore(*ckptDir, *resume || workerMode || *gather)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsweep:", err)
			return 1
		}
		o.Runner.SetResultStore(store)

		if workerMode {
			id := *workerID
			if id == "" {
				host, _ := os.Hostname()
				if host == "" {
					host = "worker"
				}
				id = fmt.Sprintf("%s-%d", host, os.Getpid())
			}
			claims, err = distrib.NewStore(*ckptDir, id, *leaseTTL, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcpsweep:", err)
				return 1
			}
			if *flight {
				rec := distrib.NewRecorder(*ckptDir, id, nil, 0)
				claims.SetRecorder(rec)
				store.SetRecorder(rec)
			}
			o.Runner.SetClaims(claims)
		}
		if *gather {
			o.Runner.SetStrictGather(true)
		}
		if *statusAddr != "" {
			srv := fleetobs.NewServer(*ckptDir, nil, 0)
			ln, err := net.Listen("tcp", *statusAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcpsweep:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "tcpsweep: fleet status on http://%s\n", ln.Addr())
			go srv.Serve(ln) //nolint:errcheck // listener failure only loses the status view
			defer srv.Close()
		}
	}

	report := telemetry.NewReport("tcpsweep")
	series := func(ss ...stats.Series) {
		for _, s := range ss {
			fmt.Println(s.String())
			report.Sweeps = append(report.Sweeps, telemetry.SweepSeries{
				Name: s.Name, Labels: s.Labels, Values: s.Values})
		}
	}
	table := func(t *stats.Table) {
		t.WriteTo(os.Stdout) //nolint:errcheck
		report.Tables = append(report.Tables, telemetry.TableData{
			Title: t.Title(), Headers: t.Headers(), Rows: t.Rows()})
	}

	unknown := false
	runSweep := func() (err error) {
		// A strict gather over an incomplete grid raises
		// *experiment.IncompleteGridError through the runner; surface it
		// as an ordinary error instead of a crash.
		defer func() {
			if p := recover(); p != nil {
				if ige, ok := p.(*experiment.IncompleteGridError); ok {
					err = ige
					return
				}
				panic(p)
			}
		}()
		switch *sweep {
		case "size":
			series(experiment.Fig13PHTSize(o)...)
		case "nbits":
			series(experiment.Fig13IndexBits(o))
		case "k":
			series(experiment.AblationTHTDepth(o))
		case "assoc":
			series(experiment.AblationPHTAssoc(o))
		case "hash":
			series(experiment.AblationHashing(o))
		case "targets":
			series(experiment.AblationMultiTarget(o))
		case "baselines":
			table(experiment.AblationClassicBaselines(o))
		case "critfilter":
			table(experiment.AblationCriticalFilter(o))
		case "strideassist":
			table(experiment.AblationStrideAssist(o))
		case "placement":
			table(experiment.AblationPlacement(o))
		case "branchpred":
			series(experiment.AblationBranchPredictors(o))
		default:
			unknown = true
		}
		return nil
	}
	if err := runSweep(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep:", err)
		var ige *experiment.IncompleteGridError
		if errors.As(err, &ige) {
			// List every discovered hole and its last-known holder so the
			// operator knows which worker to restart.
			if herr := fleetobs.WriteHoles(os.Stderr, *ckptDir); herr != nil {
				fmt.Fprintln(os.Stderr, "tcpsweep:", herr)
			}
		}
		return 1
	}
	if unknown {
		fmt.Fprintf(os.Stderr, "tcpsweep: unknown sweep %q\n", *sweep)
		return 2
	}

	if simulated, reused := o.Runner.BaselineStats(); reused > 0 {
		fmt.Fprintf(os.Stderr, "tcpsweep: baseline cache: %d simulated, %d reused\n",
			simulated, reused)
	}
	if warmups, forks := o.Runner.WarmForkStats(); forks > 0 {
		fmt.Fprintf(os.Stderr, "tcpsweep: warm fork: %d warmups simulated, %d grid points forked\n",
			warmups, forks)
	}
	if hits := o.Runner.StoreStats(); hits > 0 {
		fmt.Fprintf(os.Stderr, "tcpsweep: %d jobs answered from result manifests\n", hits)
	}
	if claims != nil {
		st := claims.Stats()
		fmt.Fprintf(os.Stderr, "tcpsweep: worker %s: %d claimed, %d conflicts, %d stolen (%d races), %d heartbeats, %d lost, %d waits\n",
			claims.Worker(), st.Claims, st.ClaimConflicts, st.Steals, st.StealRaces,
			st.Heartbeats, st.LeasesLost, st.WaitPolls)
		report.Workers = append(report.Workers, telemetry.WorkerStats{
			ID: claims.Worker(), Claims: st.Claims, ClaimConflicts: st.ClaimConflicts,
			Steals: st.Steals, StealRaces: st.StealRaces, Heartbeats: st.Heartbeats,
			LeasesLost: st.LeasesLost, Releases: st.Releases, WaitPolls: st.WaitPolls,
			ManifestHits: o.Runner.StoreStats()})
	}

	if *jsonOut != "" {
		report.GeomeanClamped = stats.GeomeanClampCount()
		if err := report.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsweep:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tcpsweep: report written to %s\n", *jsonOut)
	}
	return 0
}
