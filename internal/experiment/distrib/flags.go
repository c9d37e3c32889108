package distrib

import (
	"fmt"
	"strconv"
	"time"
)

// FlagError reports an invalid distributed-sweep flag combination. Flag
// names the offending command-line flag so tcpfigs can surface
// exactly what to fix (and exit 2, the usage-error status).
type FlagError struct {
	Flag   string
	Reason string
}

func (e *FlagError) Error() string {
	return fmt.Sprintf("invalid flag %s: %s", e.Flag, e.Reason)
}

// ValidateWorkerFlags checks tcpfigs' distributed-mode flag triple before
// any store or lease machinery is built:
//
//   - -lease-ttl must be positive: a zero or negative horizon would make
//     every lease instantly stealable (NewStore rejects it too, but only
//     after the run is already under way).
//   - -worker-id requires -workers: an id alone used to imply worker mode
//     with an advisory count of 0, which silently disabled the
//     worker-count hints in status output.
//   - A purely numeric -worker-id must be < -workers. Numeric ids are how
//     launch scripts shard ("-worker-id 3 -workers 3" is a classic
//     off-by-one); non-numeric ids (hostnames) are exempt — -workers is
//     advisory, so more workers than the count may legitimately join.
//
// Returns a *FlagError naming the offending flag, or nil.
func ValidateWorkerFlags(workers int, workerID string, leaseTTL time.Duration) error {
	if leaseTTL <= 0 {
		return &FlagError{Flag: "-lease-ttl",
			Reason: fmt.Sprintf("must be positive, got %v", leaseTTL)}
	}
	if workers < 0 {
		return &FlagError{Flag: "-workers",
			Reason: fmt.Sprintf("must be non-negative, got %d", workers)}
	}
	if workerID != "" && workers == 0 {
		return &FlagError{Flag: "-worker-id",
			Reason: "requires -workers (the advisory fleet size)"}
	}
	if n, err := strconv.Atoi(workerID); err == nil && workers > 0 && n >= workers {
		return &FlagError{Flag: "-worker-id",
			Reason: fmt.Sprintf("numeric id %d is out of range for -workers %d (ids are 0-based)", n, workers)}
	}
	return nil
}
