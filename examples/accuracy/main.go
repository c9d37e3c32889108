// Accuracy: evaluate prefetchers on raw miss streams, without timing —
// the predictor-quality view behind Figure 11. Simulates each benchmark
// once without prefetching and replays its L1 miss stream, as it happens,
// through several prefetchers, then reports coverage (misses predicted
// ahead of time) and accuracy (predictions that come true).
package main

import (
	"fmt"
	"os"

	"tagprefetch/internal/coverage"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/trace"
)

func main() {
	cfg := sim.Config{Instructions: 400_000, Warmup: 1_200_000}
	geom := memsys.DefaultConfig().L1D
	factories := []sim.Factory{
		sim.NextLine(), sim.Stride(), sim.GHB(), sim.DBCP2M(), sim.TCP8K(), sim.TCP8M(),
	}

	fmt.Println("Prefetcher coverage / accuracy on raw L1 miss streams")
	fmt.Printf("%-8s %8s", "bench", "misses")
	for _, f := range factories {
		fmt.Printf(" %16s", f.Name)
	}
	fmt.Println()

	for _, bench := range []string{"swim", "art", "lucas", "gcc", "mcf", "twolf"} {
		evs := make([]*coverage.Evaluator, len(factories))
		for i, f := range factories {
			pf, _ := f.Build(geom)
			evs[i] = coverage.New(geom, pf, 512)
		}
		misses := 0
		_, err := sim.ObserveMisses(bench, cfg, nil, func(m trace.Miss) {
			misses++
			for _, e := range evs {
				e.Observe(m)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-8s %8d", bench, misses)
		for _, e := range evs {
			r := e.Result()
			fmt.Printf("    %5.1f%%/%5.1f%%", r.Coverage()*100, r.Accuracy()*100)
		}
		fmt.Println()
	}

	fmt.Println("\ncells are coverage/accuracy; TCP-8K's coverage concentrates on")
	fmt.Println("sweep benchmarks (shared tag sequences), TCP-8M's on chases once")
	fmt.Println("per-set patterns repeat, and spatial schemes on anything strided.")
}
