package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// sharePackages maps each host-time share metric to the packages whose own
// (flat) CPU time it sums. xrand is the workload generator's RNG.
var sharePackages = map[string][]string{
	"cpu.share":        {"tagprefetch/internal/cpu"},
	"memsys.share":     {"tagprefetch/internal/memsys"},
	"cache.share":      {"tagprefetch/internal/cache"},
	"bus.share":        {"tagprefetch/internal/bus"},
	"dram.share":       {"tagprefetch/internal/dram"},
	"core.share":       {"tagprefetch/internal/core"},
	"workload.share":   {"tagprefetch/internal/workload", "tagprefetch/internal/xrand"},
	"checkpoint.share": {"tagprefetch/internal/checkpoint"},
}

// gcRoots are the runtime functions under which garbage-collection work
// runs; runtime.gc_share sums their cumulative time.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// traceRounds runs half the workload's rounds plain and half under the CPU
// profiler, and returns the profile's package shares.
func (b *bench) traceRounds(round func(n int, underProfile bool) error) (map[string]float64, error) {
	half := max(1, b.rounds/2)
	n := 0
	for start := time.Now(); n < half && b.more(start, n); n++ {
		if err := round(n, false); err != nil {
			return nil, err
		}
	}
	prof, err := startProfile(b.work)
	if err != nil {
		return nil, err
	}
	for start, k := time.Now(), 0; k < half && b.more(start, k); k, n = k+1, n+1 {
		if err := round(n, true); err != nil {
			prof.stop()
			return nil, err
		}
	}
	return prof.fold()
}

// profile is a CPU profile being written to a file in the run's scratch
// directory.
type profile struct {
	f *os.File
}

func startProfile(dir string) (*profile, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{f: f}, nil
}

func (p *profile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// fold stops the profile and folds it by package with the toolchain's
// `go tool pprof`, returning each share metric as a fraction of all
// sampled CPU time.
func (p *profile) fold() (map[string]float64, error) {
	if err := p.stop(); err != nil {
		return nil, err
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("folding the profile needs the go toolchain: %w", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", p.f.Name())
	// pprof may keep state under $HOME; keep it inside the scratch directory.
	cmd.Env = append(os.Environ(), "HOME="+filepath.Dir(p.f.Name()))
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTop(out.Bytes())
}

// foldTop parses `pprof -top` rows ("flat flat% sum% cum cum% name").
func foldTop(top []byte) (map[string]float64, error) {
	shares := make(map[string]float64, len(sharePackages)+1)
	for name := range sharePackages {
		shares[name] = 0
	}
	shares["runtime.gc_share"] = 0
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		rows++
		fn := strings.Join(f[5:], " ")
		for _, root := range gcRoots {
			if fn == root {
				shares["runtime.gc_share"] += cum / 100
			}
		}
		pkg := funcPackage(fn)
		for name, pkgs := range sharePackages {
			for _, p := range pkgs {
				if pkg == p {
					shares[name] += flat / 100
				}
			}
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("go tool pprof printed no samples")
	}
	return shares, nil
}

// funcPackage returns the import path of a symbol such as
// "tagprefetch/internal/cpu.(*pipeline).step".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
