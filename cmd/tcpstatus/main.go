// Command tcpstatus reports the live status of a distributed sweep by
// scanning its shared checkpoint directory — grid descriptor, result
// manifests, lease heartbeats, and flight-recorder logs. It is read-only:
// it never claims, steals, or writes, so it is always safe to point at a
// directory a fleet is actively working in.
//
//	tcpstatus -dir shared                 # one-shot status tables
//	tcpstatus -dir shared -watch          # live terminal view
//	tcpstatus -dir shared -json           # FleetSnapshot as JSON
//	tcpstatus -dir shared -timeline       # replay the flight-recorder logs
//	tcpstatus -dir shared -status-addr :8080   # serve /status and /metrics
//
// Run it next to the workers (or on any host that sees the directory) for
// live status while a grid simulates; the sweep daemon serves the same
// /status and /metrics over its cache. See docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		dir      = flag.String("dir", "", "shared checkpoint directory of the sweep (or pass it as the positional argument)")
		jsonOut  = flag.Bool("json", false, "print the snapshot as indented JSON instead of tables")
		watch    = flag.Bool("watch", false, "redraw the status view every -interval until interrupted")
		interval = flag.Duration("interval", 2*time.Second, "refresh cadence for -watch")
		timeline = flag.Bool("timeline", false, "render the merged flight-recorder timeline instead of current status")
		addr     = flag.String("status-addr", "", "serve /status and /metrics on this address instead of printing")
	)
	flag.Parse()
	if *dir == "" && flag.NArg() == 1 {
		*dir = flag.Arg(0)
	}
	if *dir == "" || flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: tcpstatus [-json|-watch|-timeline|-status-addr addr] -dir <checkpoint-dir>")
		return 2
	}
	modes := 0
	for _, on := range []bool{*jsonOut, *watch, *timeline, *addr != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "tcpstatus: -json, -watch, -timeline and -status-addr are mutually exclusive")
		return 2
	}

	// All timing flows through distrib.Clock: the one-shot paths call
	// Scan(..., nil) which selects the system clock, and -watch sleeps on
	// it, so this binary stays free of direct wall-clock reads.
	clock := distrib.System

	switch {
	case *timeline:
		if err := fleetobs.WriteTimeline(os.Stdout, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "tcpstatus:", err)
			return 1
		}
	case *addr != "":
		srv := fleetobs.NewServer(*dir, clock)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpstatus:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tcpstatus: fleet status on http://%s\n", ln.Addr())
		if err := http.Serve(ln, srv.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "tcpstatus:", err)
			return 1
		}
	case *watch:
		for {
			snap, err := fleetobs.Scan(*dir, clock)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcpstatus:", err)
				return 1
			}
			// Clear the terminal and redraw in place.
			fmt.Print("\x1b[2J\x1b[H")
			fleetobs.Render(os.Stdout, snap) //nolint:errcheck // stdout gone ends the loop below anyway
			d := *interval
			if d <= 0 {
				d = 2 * time.Second
			}
			<-clock.After(d)
		}
	default:
		snap, err := fleetobs.Scan(*dir, clock)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpstatus:", err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				fmt.Fprintln(os.Stderr, "tcpstatus:", err)
				return 1
			}
			return 0
		}
		if err := fleetobs.Render(os.Stdout, snap); err != nil {
			fmt.Fprintln(os.Stderr, "tcpstatus:", err)
			return 1
		}
	}
	return 0
}
