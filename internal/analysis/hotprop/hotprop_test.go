package hotprop_test

import (
	"testing"

	"tagprefetch/internal/analysis/analysistest"
	"tagprefetch/internal/analysis/hotprop"
)

func TestHotprop(t *testing.T) {
	analysistest.Run(t, hotprop.Analyzer, "testdata", "a")
}

// Atomic telemetry counter bumps reachable from hot code are reported,
// except inside the telemetry package itself.
func TestHotpropCounterBumps(t *testing.T) {
	analysistest.Run(t, hotprop.Analyzer, "testdata", "bump", "telemetry")
}

// Cross-package: hotdep is analyzed first, exporting AllocSummary facts;
// hotuse consumes them through the shared store.
func TestHotpropCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, hotprop.Analyzer, "testdata", "hotdep", "hotuse")
}
