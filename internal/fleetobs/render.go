package fleetobs

import (
	"fmt"
	"io"
	"strings"
	"time"

	"tagprefetch/internal/stats"
)

// fmtDur renders a nanosecond span for the tables; non-positive spans (and
// the -1 "never seen" sentinel) render as a dash.
func fmtDur(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Millisecond).String()
}

// orDash substitutes a dash for empty cells.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// WriteHoles lists the named jobs — the holes a gather found
// (*experiment.IncompleteGridError) — with the last-known lease holder
// dir shows for each, so operators know which worker to restart. A job no
// worker ever touched left no trace on disk and is listed as pending with
// no known holder.
func WriteHoles(w io.Writer, dir string, jobs []string) error {
	snap, err := Scan(dir, nil)
	if err != nil {
		return err
	}
	_, holes := snap.Rollup(jobs)
	if _, err := fmt.Fprintf(w, "%d incomplete job(s) in %s:\n", len(holes), dir); err != nil {
		return err
	}
	for _, js := range holes {
		holder := "no known holder"
		switch {
		case js.Worker != "" && js.TTLNS > 0:
			holder = fmt.Sprintf("%s, last holder %s (heartbeat %s ago, ttl %s)",
				js.State, js.Worker, fmtDur(js.HeartbeatAgeNS), fmtDur(js.TTLNS))
		case js.Worker != "":
			holder = fmt.Sprintf("%s, last worker %s", js.State, js.Worker)
		default:
			holder = string(js.State) + ", " + holder
		}
		if _, err := fmt.Fprintf(w, "  %s  %s\n", js.Job, holder); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the snapshot as the human-readable status view: a summary
// header followed by per-job and per-worker tables.
func Render(w io.Writer, snap *FleetSnapshot) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== fleet status: %s ==\n", snap.Dir)
	if g := snap.Grid; g != nil {
		fmt.Fprintf(&b, "grid: %s/%s n=%d warmup=%d seed=%d benches=%s warm_fork=%v\n",
			g.Tool, g.Experiment, g.Instructions, g.Warmup, g.Seed,
			strings.Join(g.Benches, ","), g.WarmFork)
	}
	if snap.Total == 0 {
		b.WriteString("no jobs discovered yet\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	c := snap.States
	fmt.Fprintf(&b, "jobs: %d discovered — %d done, %d running, %d claimed, %d stale, %d stolen, %d pending (%.1f%% complete)\n",
		snap.Total, c.Done, c.Running, c.Claimed, c.Stale, c.Stolen, c.Pending, snap.CompletionPct)
	if snap.MeanJobNS > 0 {
		fmt.Fprintf(&b, "mean job %s", fmtDur(snap.MeanJobNS))
		if snap.ETANS > 0 {
			fmt.Fprintf(&b, ", ETA %s", fmtDur(snap.ETANS))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")

	jt := stats.NewTable("jobs", "job", "state", "worker", "hb age", "ttl", "seq", "steals", "wall")
	for _, js := range snap.Jobs {
		seq := "-"
		if js.TTLNS > 0 {
			seq = fmt.Sprint(js.Seq)
		}
		steals := "-"
		if js.Steals > 0 {
			steals = fmt.Sprint(js.Steals)
		}
		jt.AddRow(js.Job, string(js.State), orDash(js.Worker),
			fmtDur(js.HeartbeatAgeNS), fmtDur(js.TTLNS), seq, steals, fmtDur(js.WallNS))
	}
	jt.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail

	if len(snap.Workers) > 0 {
		b.WriteString("\n")
		wt := stats.NewTable("workers", "worker", "fresh", "claimed", "stale", "done", "steals", "last seen", "mean job")
		for _, ws := range snap.Workers {
			wt.AddRowf(ws.ID, ws.Fresh, ws.Claimed, ws.Stale, ws.Done, ws.Steals,
				fmtDur(ws.LastSeenAgeNS), fmtDur(ws.MeanJobNS))
		}
		wt.WriteTo(&b) //nolint:errcheck // strings.Builder cannot fail
	}
	_, err := io.WriteString(w, b.String())
	return err
}
