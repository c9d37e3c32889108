// Package stats provides the small statistical toolkit used across the
// simulator: geometric means (the paper reports SPEC2000 averages as
// geometric means) and ASCII table/series rendering for the experiment
// harness.
package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// geomeanClamps counts non-positive inputs clamped across all Geomean
// calls in the process; see GeomeanClampCount.
var geomeanClamps atomic.Uint64

// Geomean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny epsilon so that a single zero does not collapse the
// mean to zero (matches how speedup geomeans are conventionally computed).
// An empty slice returns 0.
//
// Clamping silently distorts the mean, so it is never silent here: each
// clamped input is added to the process-wide count reported by
// GeomeanClampCount, which tcpfigs' JSON report carries. Callers that
// want the count per call should use GeomeanClamped.
func Geomean(xs []float64) float64 {
	g, _ := GeomeanClamped(xs)
	return g
}

// GeomeanClamped is Geomean, additionally returning how many of xs were
// non-positive and therefore clamped to the epsilon.
func GeomeanClamped(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	clamped := 0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
			clamped++
		}
		sum += math.Log(x)
	}
	if clamped > 0 {
		geomeanClamps.Add(uint64(clamped))
	}
	return math.Exp(sum / float64(len(xs))), clamped
}

// GeomeanClampCount reports the total number of non-positive geomean
// inputs clamped so far in this process.
func GeomeanClampCount() uint64 { return geomeanClamps.Load() }

// Percent formats a ratio as a signed percentage string, e.g. 0.14 -> "14.0%".
func Percent(r float64) string {
	return fmt.Sprintf("%.1f%%", r*100)
}

// Ratio returns a/b, or 0 when b == 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
