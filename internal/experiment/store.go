package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/sim"
)

// ResultStore persists completed per-job results as one JSON manifest per
// job under a directory, written atomically (unique temp file + rename), so
// a sweep killed mid-grid can be resumed: re-running with resume enabled
// answers already-completed jobs from disk and simulates only the
// remainder. sim.Result round-trips JSON exactly (integer counters and
// shortest-repr floats), so a resumed sweep's tables are byte-identical to
// an uninterrupted run's. The same manifests are the publication medium for
// distributed sweeps (docs/DISTRIBUTED.md): because the temp names are
// unique per writer and the rename is atomic, any number of workers may
// publish the same job concurrently and the manifest is always one
// writer's complete bytes.
type ResultStore struct {
	dir    string
	resume bool
	faults *distrib.Faults
	rec    *distrib.Recorder
}

// NewResultStore opens (creating if needed) a manifest directory. When
// resume is true, Lookup consults existing manifests; when false the store
// only records results, so a later invocation can resume.
func NewResultStore(dir string, resume bool) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ResultStore{dir: dir, resume: resume}, nil
}

// SetFaults installs a crash-injection script (tests only): the
// distrib.BeforeRename point fires between the manifest's temp-file write
// and its atomic rename.
func (s *ResultStore) SetFaults(f *distrib.Faults) { s.faults = f }

// SetRecorder attaches a flight recorder: each successful manifest publish
// logs a manifest-commit event to the job's flight file. Nil (the default)
// disables recording at one branch per publish.
func (s *ResultStore) SetRecorder(rec *distrib.Recorder) { s.rec = rec }

// storedResult is the manifest schema. Bench/Factory/Baseline echo the job
// identity so a filename hash collision is detected instead of trusted.
type storedResult struct {
	Bench    string
	Factory  string
	Baseline bool
	Result   sim.Result
}

// parseManifest decodes and validates one manifest. Truncated, corrupt or
// identity-less bytes error — the caller treats any error as "job not
// done", never as a partial result.
func parseManifest(data []byte) (storedResult, error) {
	var sr storedResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return storedResult{}, fmt.Errorf("experiment: corrupt manifest: %w", err)
	}
	if sr.Bench == "" || sr.Factory == "" {
		return storedResult{}, errors.New("experiment: corrupt manifest: missing job identity")
	}
	return sr, nil
}

// Lookup returns the stored result for a job, if the store is in resume mode
// and a manifest with a matching identity exists. A nil store never hits.
func (s *ResultStore) Lookup(bench, factory string, baseline bool, c sim.Config) (sim.Result, bool) {
	if s == nil || !s.resume {
		return sim.Result{}, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, jobFile(bench, factory, baseline, c)))
	if err != nil {
		return sim.Result{}, false
	}
	sr, err := parseManifest(data)
	if err != nil {
		return sim.Result{}, false
	}
	if sr.Bench != bench || sr.Factory != factory || sr.Baseline != baseline {
		return sim.Result{}, false
	}
	return sr.Result, true
}

// Save records a completed job result, atomically. Failures are silent by
// design: the store is a cache, and the in-memory result is authoritative.
func (s *ResultStore) Save(bench, factory string, baseline bool, c sim.Config, res sim.Result) {
	if s == nil {
		return
	}
	name := jobFile(bench, factory, baseline, c)
	data, err := json.MarshalIndent(storedResult{
		Bench: bench, Factory: factory, Baseline: baseline, Result: res,
	}, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.dir, name)
	f, err := os.CreateTemp(s.dir, name+".tmp-*")
	if err != nil {
		return
	}
	tmp := f.Name()
	_, werr := f.Write(append(data, '\n'))
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	s.faults.Fire(distrib.BeforeRename, name)
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return
	}
	s.rec.Record(name, distrib.EventManifestCommit)
}
