package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Lease is the on-disk claim record for one job. It lives next to the
// job's result manifest as <job>.lease and is always written whole (temp
// file + link/rename), so readers either see a complete record or no file.
type Lease struct {
	// Job is the manifest filename the lease protects (e.g.
	// "job-0123456789abcdef.json"); echoed so a lease can never be
	// mistaken for another job's.
	Job string `json:"job"`
	// Worker is the unique id of the claiming worker.
	Worker string `json:"worker"`
	// Heartbeat is the holder's Clock.Now at the last renewal,
	// nanoseconds.
	Heartbeat int64 `json:"heartbeat_ns"`
	// TTL is the staleness horizon in nanoseconds: once Heartbeat+TTL is
	// in the past the holder is presumed dead and the lease may be
	// stolen. The holder's own TTL travels in the lease so stealers honor
	// it even when configured with a different one.
	TTL int64 `json:"ttl_ns"`
	// Seq counts renewals, starting at 0 on claim.
	Seq uint64 `json:"seq"`
}

// Expired reports whether the lease's holder is presumed dead at now: a
// lease is live through the instant Heartbeat+TTL and stale after it.
// StealIfStale steals on this rule and fleetobs reports it.
func (l Lease) Expired(now int64) bool { return now > l.Heartbeat+l.TTL }

// ParseLease decodes and validates a lease record. Truncated, corrupt, or
// structurally invalid bytes (for instance a file caught mid-replacement
// by a reader on a filesystem without atomic rename visibility) return an
// error — never a partial lease.
func ParseLease(data []byte) (Lease, error) {
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		return Lease{}, fmt.Errorf("distrib: corrupt lease: %w", err)
	}
	if l.Job == "" || l.Worker == "" {
		return Lease{}, errors.New("distrib: corrupt lease: missing job or worker identity")
	}
	if l.TTL <= 0 {
		return Lease{}, fmt.Errorf("distrib: corrupt lease: non-positive ttl %d", l.TTL)
	}
	return l, nil
}

// Stats is a snapshot of one worker's protocol counters.
type Stats struct {
	// Claims is the number of leases this worker acquired.
	Claims uint64
	// ClaimConflicts counts claim attempts that lost to another worker's
	// existing lease.
	ClaimConflicts uint64
	// Steals counts stale leases this worker reclaimed.
	Steals uint64
	// StealRaces counts steal attempts that lost to a concurrent stealer.
	StealRaces uint64
	// Heartbeats counts successful lease renewals.
	Heartbeats uint64
	// LeasesLost counts renewals that found the lease stolen (the worker
	// was presumed dead); the holder finishes and publishes anyway, since
	// the duplicate manifest is byte-identical.
	LeasesLost uint64
	// Releases counts leases released after a completed job.
	Releases uint64
	// WaitPolls counts backoff sleeps while another worker held a job.
	WaitPolls uint64
}

// Store manages this worker's leases in a shared checkpoint directory.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	worker string
	ttl    time.Duration
	clock  Clock
	faults *Faults
	rec    *Recorder

	pollMin, pollMax time.Duration

	uniq atomic.Uint64 // temp/steal filename disambiguator

	mu          sync.Mutex
	corruptSeen map[string]int64 // job -> Clock.Now when a corrupt lease was first seen

	claims, claimConflicts atomic.Uint64
	steals, stealRaces     atomic.Uint64
	heartbeats, leasesLost atomic.Uint64
	releases, waitPolls    atomic.Uint64
}

// NewStore opens a lease store for one worker over the shared directory.
// worker must be unique among every process sharing dir (hostname+pid is a
// good default); ttl is the staleness horizon for leases this worker
// writes. A nil clock selects System.
func NewStore(dir, worker string, ttl time.Duration, clock Clock) (*Store, error) {
	if worker == "" {
		return nil, errors.New("distrib: empty worker id")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("distrib: non-positive lease ttl %v", ttl)
	}
	if clock == nil {
		clock = System
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:         dir,
		worker:      worker,
		ttl:         ttl,
		clock:       clock,
		pollMin:     ttl / 64,
		pollMax:     ttl / 2,
		corruptSeen: make(map[string]int64),
	}, nil
}

// SetFaults installs a crash-injection script (tests only).
func (s *Store) SetFaults(f *Faults) { s.faults = f }

// Faults returns the installed crash-injection script (nil in production).
func (s *Store) Faults() *Faults { return s.faults }

// SetRecorder attaches a flight recorder; claim-protocol transitions on
// this store are logged to per-job flight files. Nil (the default) disables
// recording at one branch per event.
func (s *Store) SetRecorder(rec *Recorder) { s.rec = rec }

// Recorder returns the attached flight recorder (nil when disabled).
func (s *Store) Recorder() *Recorder { return s.rec }

// Worker returns this store's worker id.
func (s *Store) Worker() string { return s.worker }

// Stats snapshots the protocol counters.
func (s *Store) Stats() Stats {
	return Stats{
		Claims:         s.claims.Load(),
		ClaimConflicts: s.claimConflicts.Load(),
		Steals:         s.steals.Load(),
		StealRaces:     s.stealRaces.Load(),
		Heartbeats:     s.heartbeats.Load(),
		LeasesLost:     s.leasesLost.Load(),
		Releases:       s.releases.Load(),
		WaitPolls:      s.waitPolls.Load(),
	}
}

// LeaseSuffix is appended to a job's manifest filename to name its lease
// file; observers (internal/fleetobs) use it to pair leases with jobs.
const LeaseSuffix = ".lease"

func (s *Store) leasePath(job string) string { return filepath.Join(s.dir, job+LeaseSuffix) }

// writeWhole writes data to a unique temp file in the store directory and
// returns its path. Callers link or rename it into place; either way
// readers only ever observe complete lease records.
func (s *Store) writeWhole(data []byte) (string, error) {
	tmp := filepath.Join(s.dir, fmt.Sprintf(".lease-tmp-%s-%d", s.worker, s.uniq.Add(1)))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	return tmp, nil
}

// Claim is a held lease. Start launches the heartbeat renewer; Release
// removes the lease after the job's manifest is published; Abandon stops
// renewing without removing the file (what a crash leaves behind).
type Claim struct {
	s       *Store
	lease   Lease
	done    chan struct{}
	stop    sync.Once
	renewer sync.WaitGroup // the heartbeat loop, once Start ran
}

// TryClaim attempts to acquire the lease for job (the manifest filename).
// It returns (claim, true, nil) on success, (nil, false, nil) when another
// worker holds it, and an error only for storage failures. The heartbeat
// renewer is not started until Start is called, so a worker that dies
// between the two behaves exactly like a crashed holder.
func (s *Store) TryClaim(job string) (*Claim, bool, error) {
	l := Lease{Job: job, Worker: s.worker, Heartbeat: s.clock.Now(), TTL: int64(s.ttl)}
	data, err := json.Marshal(l)
	if err != nil {
		return nil, false, err
	}
	tmp, err := s.writeWhole(append(data, '\n'))
	if err != nil {
		return nil, false, err
	}
	// Hard-link publication: link(2) fails with EEXIST if any lease is
	// already in place, and the linked file is complete by construction.
	// This is the one atomic create-exclusive primitive that also works
	// on NFS, where O_EXCL is historically unreliable.
	err = os.Link(tmp, s.leasePath(job))
	os.Remove(tmp)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			s.claimConflicts.Add(1)
			return nil, false, nil
		}
		return nil, false, err
	}
	s.claims.Add(1)
	s.rec.Record(job, EventClaim)
	return &Claim{s: s, lease: l, done: make(chan struct{})}, true, nil
}

// Start launches the background heartbeat renewer, which rewrites the
// lease with a fresh Heartbeat every TTL/3 until Release or Abandon.
func (c *Claim) Start() {
	c.renewer.Add(1)
	go func() {
		defer c.renewer.Done()
		c.heartbeatLoop()
	}()
}

// halt stops the heartbeat renewer and waits for it to exit, so no renewal
// is in flight afterwards: none can rewrite a lease Release removed, and
// Stats counts every renewal a reader could have seen on disk.
func (c *Claim) halt() {
	c.stop.Do(func() { close(c.done) })
	c.renewer.Wait()
}

func (c *Claim) heartbeatLoop() {
	period := c.s.ttl / 3
	if period <= 0 {
		period = time.Millisecond
	}
	for {
		select {
		case <-c.done:
			return
		case <-c.s.clock.After(period):
		}
		select {
		case <-c.done:
			return
		default:
		}
		if err := c.renew(); err != nil {
			c.s.leasesLost.Add(1)
			c.s.rec.Record(c.lease.Job, EventLeaseLost)
			return
		}
	}
}

// renew rewrites the lease with a fresh heartbeat. If the on-disk lease is
// no longer ours — a stealer decided we were dead — renewal stops: the
// holder keeps simulating and publishes anyway (identical bytes), it just
// stops asserting liveness for a job it no longer owns.
func (c *Claim) renew() error {
	path := c.s.leasePath(c.lease.Job)
	cur, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("distrib: lease lost: %w", err)
	}
	l, err := ParseLease(cur)
	if err != nil {
		return err
	}
	if l.Worker != c.s.worker || l.Job != c.lease.Job {
		return fmt.Errorf("distrib: lease for %s stolen by %s", c.lease.Job, l.Worker)
	}
	c.lease.Seq = l.Seq + 1
	c.lease.Heartbeat = c.s.clock.Now()
	data, err := json.Marshal(c.lease)
	if err != nil {
		return err
	}
	tmp, err := c.s.writeWhole(append(data, '\n'))
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	c.s.heartbeats.Add(1)
	c.s.rec.RecordSeq(c.lease.Job, EventHeartbeat, c.lease.Seq)
	return nil
}

// Release stops the heartbeat renewer and removes the lease file. Call
// only after the job's manifest has been published.
func (c *Claim) Release() {
	c.halt()
	os.Remove(c.s.leasePath(c.lease.Job))
	c.s.releases.Add(1)
	c.s.rec.Record(c.lease.Job, EventRelease)
}

// Abandon stops the heartbeat renewer but leaves the lease file on disk —
// the state an injected crash must leave behind so other workers exercise
// the stale-lease steal path.
func (c *Claim) Abandon() { c.halt() }

// StealIfStale inspects job's lease and reclaims it when the holder's
// heartbeat has expired. It reports whether the caller should immediately
// retry TryClaim: true when the lease was stolen or has disappeared (the
// holder released it), false while a live holder is still heartbeating. A
// lease that cannot be parsed is treated as stale once it has stayed
// corrupt for a full TTL from first observation.
func (s *Store) StealIfStale(job string) bool {
	path := s.leasePath(job)
	data, err := os.ReadFile(path)
	if err != nil {
		return true // no lease: holder released (or never existed) — retry
	}
	now := s.clock.Now()
	var stale bool
	if l, err := ParseLease(data); err == nil && l.Job == job {
		s.forgetCorrupt(job)
		stale = l.Expired(now)
	} else {
		// A corrupt record, or a foreign one at this path, protects
		// nothing; steal it one TTL after first seeing it.
		stale = now > s.corruptFirstSeen(job, now)+int64(s.ttl)
	}
	if !stale {
		return false
	}
	// Rename-to-unique-name is the atomic single-winner operation: of any
	// number of concurrent stealers exactly one rename succeeds, because
	// the source path disappears with the winner.
	dst := fmt.Sprintf("%s.stale-%s-%d", path, s.worker, s.uniq.Add(1))
	if err := os.Rename(path, dst); err != nil {
		s.stealRaces.Add(1)
		return true // someone else stole it first — still worth a retry
	}
	os.Remove(dst)
	s.forgetCorrupt(job)
	s.steals.Add(1)
	s.rec.Record(job, EventSteal)
	return true
}

func (s *Store) corruptFirstSeen(job string, now int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.corruptSeen[job]; ok {
		return t
	}
	s.corruptSeen[job] = now
	return now
}

func (s *Store) forgetCorrupt(job string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.corruptSeen, job)
}

// AwaitRetry blocks briefly before the caller's next claim/lookup attempt
// for a job another worker holds: it first tries to reclaim a stale lease
// (returning immediately when the lease was stolen or released so the
// caller retries at once), then sleeps an exponential backoff bounded by
// [TTL/64, TTL/2] so a waiting worker notices a published manifest or an
// expired lease within half a TTL of it happening.
func (s *Store) AwaitRetry(job string, attempt int) {
	if s.StealIfStale(job) {
		return
	}
	d := s.pollMin
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < s.pollMax; i++ {
		d *= 2
	}
	if d > s.pollMax && s.pollMax > 0 {
		d = s.pollMax
	}
	s.waitPolls.Add(1)
	<-s.clock.After(d)
}
