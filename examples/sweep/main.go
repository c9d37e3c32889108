// Sweep: reproduce Figure 13 on a small benchmark subset — how PHT size
// and the sharing/privacy trade-off (miss-index bits in the PHT index)
// shape TCP performance.
package main

import (
	"fmt"
	"log"

	"tagprefetch"
)

func main() {
	benches := []string{"swim", "art", "mcf"}
	cfg := tagprefetch.RunConfig{Instructions: 400_000, Warmup: 800_000}

	fmt.Println("Figure 13 (top) on {swim, art, mcf}: IPC vs PHT size")
	fmt.Printf("%-8s", "size")
	for _, b := range benches {
		fmt.Printf(" %10s", b)
	}
	fmt.Println()
	for _, size := range []int{2 << 10, 8 << 10, 32 << 10, 512 << 10, 8 << 20} {
		fmt.Printf("%-8s", label(size))
		for _, b := range benches {
			r, err := tagprefetch.RunTCP(b, tcp(size, 0), cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %10.3f", r.IPC())
		}
		fmt.Println()
	}

	fmt.Println("\nFigure 13 (bottom): 8KB PHT, IPC vs miss-index bits n")
	for _, n := range []int{0, 1, 2, 3} {
		fmt.Printf("n=%d     ", n)
		for _, b := range benches {
			r, err := tagprefetch.RunTCP(b, tcp(8<<10, n), cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %10.3f", r.IPC())
		}
		fmt.Println()
	}
	fmt.Println("\nAs in the paper: growing a shared PHT past 8KB has diminishing")
	fmt.Println("returns, and slicing a small PHT by miss-index bits only shrinks")
	fmt.Println("the per-set pattern space.")
}

// tcp is the paper's TCP with a PHT of size bytes (4-byte entries,
// 8-way) indexed with n miss-index bits.
func tcp(size, n int) tagprefetch.TCPConfig {
	return tagprefetch.TCPConfig{HistoryDepth: 2, PHTSets: size / 32, PHTWays: 8, IndexBits: n}
}

func label(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}
