// Command tcpsweepd serves sweeps over HTTP (docs/SWEEPD.md): clients POST
// grid requests to /v1/sweeps, the daemon answers every point it can from
// its content-addressed result cache, schedules the misses onto its
// in-process worker fleet with per-tenant fair queueing, and renders
// completed results byte-identical to `tcpfigs -gather`.
//
//	tcpsweepd -root /var/lib/tcp                 # defaults: 2 workers, :8344
//	tcpsweepd -root data -workers 8 -addr :9000  # bigger fleet
//
// The cache directory (<root>/ckpt-v<version>) is an ordinary checkpoint
// directory: external `tcpfigs -workers` processes pointed at it join the
// daemon's fleet, and /status and /metrics expose it exactly as
// `tcpstatus -status-addr` would.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"tagprefetch/internal/sweepd"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8344", "HTTP listen address")
		root     = flag.String("root", "", "data directory; the result cache lives in <root>/ckpt-v<version> (required)")
		workers  = flag.Int("workers", 2, "in-process simulation workers")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second, "job-lease staleness horizon before a crashed worker's leases may be stolen")
		maxQueue = flag.Int("max-queue", 1024, "global queued-job bound; requests overflowing it get 429 + Retry-After")
		maxJobs  = flag.Int("max-jobs", 4096, "per-request job budget; larger grids are rejected with 400")
	)
	flag.Parse()

	if *root == "" {
		fmt.Fprintln(os.Stderr, "tcpsweepd: -root is required")
		return 2
	}
	if *workers <= 0 {
		fmt.Fprintln(os.Stderr, "tcpsweepd: -workers must be positive")
		return 2
	}
	if *leaseTTL <= 0 {
		fmt.Fprintln(os.Stderr, "tcpsweepd: -lease-ttl must be positive")
		return 2
	}

	srv, err := sweepd.New(sweepd.Config{
		Root:            *root,
		Workers:         *workers,
		LeaseTTL:        *leaseTTL,
		MaxQueuedJobs:   *maxQueue,
		MaxJobsPerSweep: *maxJobs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweepd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweepd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "tcpsweepd: serving on http://%s (cache %s, %d workers)\n",
		ln.Addr(), srv.CacheDir(), *workers)
	defer srv.Close()
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweepd:", err)
		return 1
	}
	return 0
}
