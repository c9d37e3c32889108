package experiment

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

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
//
// A store parses each manifest once: Lookup memoises the parsed result
// with the file's identity (device and inode, size and mtime) and, on later
// lookups of the same grid point, revalidates it with one stat, re-reading
// only a file that changed. A deleted manifest misses and a rewritten one
// is parsed again on the next lookup, so the memo never outlives the bytes
// it was read from. A rewrite that keeps the inode, size and mtime (an
// in-place edit within one tick of a coarse file-system clock) goes
// unseen; the store's own writers never produce one, because each publish
// renames a new file over the old. The memo holds one parsed result and
// its key per point looked up, for the store's lifetime: one process for
// the CLIs, the daemon's life for tcpsweepd.
//
// Save writes each manifest with json.MarshalIndent. A first lookup
// decodes it by template match, else encoding/json: the bytes are matched
// against Save's own layout, derived from storedResult (manifest.go), with
// each value parsed in place. Bytes off that layout, such as an escape, a
// non-canonical number, another indentation or key order, or an unknown
// key, are decoded by json.Unmarshal instead, so every manifest reads as
// encoding/json reads it.
type ResultStore struct {
	dir    string
	resume bool
	faults *distrib.Faults
	rec    *distrib.Recorder

	mu   sync.Mutex
	memo map[pointKey]*manifestEntry
}

// pointKey is a grid point as Lookup's caller names it. Configs that
// normalize alike share a manifest but not a key; each key revalidates on
// its own.
type pointKey struct {
	bench, factory string
	baseline       bool
	cfg            sim.Config
}

// manifestEntry is one parsed manifest and the identity of the file it was
// parsed from. Entries are replaced, never mutated.
type manifestEntry struct {
	path string
	info os.FileInfo
	sr   storedResult
}

// NewResultStore opens (creating if needed) a manifest directory. When
// resume is true, Lookup consults existing manifests; when false the store
// only records results, so a later invocation can resume.
func NewResultStore(dir string, resume bool) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &ResultStore{dir: dir, resume: resume, memo: make(map[pointKey]*manifestEntry)}, nil
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

// Lookup returns the stored result for a job, if the store is in resume mode
// and a manifest with a matching identity exists. A nil store never hits.
func (s *ResultStore) Lookup(bench, factory string, baseline bool, c sim.Config) (sim.Result, bool) {
	if !s.consulted() {
		return sim.Result{}, false
	}
	k := pointKey{bench, factory, baseline, c}
	s.mu.Lock()
	e := s.memo[k]
	s.mu.Unlock()
	if e == nil || !e.unchanged() {
		var err error
		if e, err = readManifest(filepath.Join(s.dir, jobFile(bench, factory, baseline, c))); err != nil {
			return sim.Result{}, false
		}
		s.mu.Lock()
		s.memo[k] = e
		s.mu.Unlock()
	}
	if e.sr.Bench != bench || e.sr.Factory != factory || e.sr.Baseline != baseline {
		return sim.Result{}, false
	}
	return e.sr.Result, true
}

// LookupJob is Lookup for one job.
func (s *ResultStore) LookupJob(j Job) (sim.Result, bool) {
	return s.Lookup(j.Bench, j.Factory.Name, j.Baseline, j.Config)
}

// consulted reports whether Lookup reads manifests: the store is in resume
// mode. A nil store is not consulted.
func (s *ResultStore) consulted() bool { return s != nil && s.resume }

// unchanged reports whether e's manifest is still the file e was parsed
// from: same device and inode, size and mtime.
func (e *manifestEntry) unchanged() bool {
	fi, err := os.Stat(e.path)
	return err == nil && os.SameFile(fi, e.info) && fi.Size() == e.info.Size() && fi.ModTime().Equal(e.info.ModTime())
}

// readManifest opens, stats, reads and parses one manifest. The stat
// precedes the read, so a write that lands after it changes the identity
// the memo compares against; a file that grew since the stat parses as
// truncated and misses. The file is opened with syscall.Open and wrapped
// by os.NewFile, which keeps it out of the runtime poller: os.Open would
// switch a regular file to non-blocking mode, fail to register it with
// epoll and switch it back, four fcntl calls and an epoll_ctl per
// manifest where NewFile makes one fcntl call.
func readManifest(path string) (*manifestEntry, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR { // as os.Open retries: a signal is not a miss
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	f := os.NewFile(uintptr(fd), path)
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	e := &manifestEntry{path: path, info: fi}
	if err := parseManifest(data, &e.sr); err != nil {
		return nil, err
	}
	return e, nil
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
