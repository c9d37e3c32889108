package fleetobs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
)

// ReadTimeline merges every flight log in dir into one deterministically
// ordered event stream: ordered by timestamp, ties broken by job name and
// then by each log's own append order. Under the manual test clock two
// identical runs produce byte-identical timelines.
func ReadTimeline(dir string) ([]distrib.FlightEvent, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type entry struct {
		ev  distrib.FlightEvent
		idx int // append position within its own flight log
	}
	var all []entry
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, distrib.FlightSuffix) && experiment.IsJobFile(strings.TrimSuffix(name, distrib.FlightSuffix)) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		evs, err := distrib.ReadFlight(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		for i, ev := range evs {
			all = append(all, entry{ev: ev, idx: i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ev.T != b.ev.T {
			return a.ev.T < b.ev.T
		}
		if a.ev.Job != b.ev.Job {
			return a.ev.Job < b.ev.Job
		}
		return a.idx < b.idx
	})
	out := make([]distrib.FlightEvent, len(all))
	for i, e := range all {
		out[i] = e.ev
	}
	return out, nil
}

// WriteTimeline renders the merged flight logs of dir as a timeline, one
// event per line offset from the earliest event.
func WriteTimeline(w io.Writer, dir string) error {
	evs, err := ReadTimeline(dir)
	if err != nil {
		return err
	}
	jobs := make(map[string]bool)
	workerW := len("worker")
	for _, ev := range evs {
		jobs[ev.Job] = true
		if len(ev.Worker) > workerW {
			workerW = len(ev.Worker)
		}
	}
	if _, err := fmt.Fprintf(w, "== flight timeline: %s ==\n%d events across %d jobs\n", dir, len(evs), len(jobs)); err != nil {
		return err
	}
	if len(evs) == 0 {
		return nil
	}
	t0 := evs[0].T
	for _, ev := range evs {
		note := ""
		if ev.Point != "" {
			note = "  point=" + ev.Point
		}
		if ev.Event == distrib.EventHeartbeat {
			note = fmt.Sprintf("  seq=%d", ev.Seq)
		}
		if _, err := fmt.Fprintf(w, "+%12.6fs  %-*s  %-15s  %s%s\n",
			float64(ev.T-t0)/1e9, workerW, ev.Worker, ev.Event, ev.Job, note); err != nil {
			return err
		}
	}
	return nil
}
