package sim

import (
	"fmt"
	"math"

	"tagprefetch/internal/branch"
)

// ConfigError reports an invalid simulation configuration field. It is the
// typed error Run, NewMachine and the command-line tools surface instead of
// letting a bad flag value panic deep inside geometry or table construction.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for values the defaulting logic would
// otherwise silently mangle. By convention a zero field selects its Table 1
// default, so a negative count or latency is always a mistake — previously
// it was folded into the default without a word. Cache geometries are valid
// by construction (addr.NewGeometry rejects zero, negative and
// non-power-of-two shapes), so Validate checks the one cross-field property
// construction cannot see: the L2 block must be at least as large as the L1
// block, because the hierarchy maps L1 blocks into containing L2 blocks.
// Returns a *ConfigError describing the first offending field.
func (c Config) Validate() error {
	intFields := [...]struct {
		name string
		v    int
	}{
		{"Mem.L1L2BusBytes", c.Mem.L1L2BusBytes},
		{"Mem.MemBusBytes", c.Mem.MemBusBytes},
		{"Mem.MSHRs", c.Mem.MSHRs},
		{"Mem.MaxPerMiss", c.Mem.MaxPerMiss},
	}
	for _, f := range intFields {
		if f.v < 0 {
			return &ConfigError{Field: f.name,
				Reason: fmt.Sprintf("negative value %d (zero selects the default)", f.v)}
		}
	}
	int64Fields := [...]struct {
		name string
		v    int64
	}{
		{"Mem.L1HitLatency", c.Mem.L1HitLatency},
		{"Mem.L2Latency", c.Mem.L2Latency},
		{"Mem.MemLatency", c.Mem.MemLatency},
	}
	for _, f := range int64Fields {
		if f.v < 0 {
			return &ConfigError{Field: f.name,
				Reason: fmt.Sprintf("negative value %d (zero selects the default)", f.v)}
		}
	}

	n := c.Normalized()
	mc := n.Mem.WithDefaults()
	if mc.L2.BlockBytes() < mc.L1D.BlockBytes() {
		return &ConfigError{Field: "Mem.L2",
			Reason: fmt.Sprintf("L2 block size %dB smaller than L1 block size %dB",
				mc.L2.BlockBytes(), mc.L1D.BlockBytes())}
	}
	if n.Warmup > math.MaxUint64-n.Instructions {
		return &ConfigError{Field: "Warmup",
			Reason: fmt.Sprintf("warmup %d + instructions %d overflows", n.Warmup, n.Instructions)}
	}
	if _, err := branch.New(n.CPU.Predictor); err != nil {
		return &ConfigError{Field: "CPU.Predictor", Reason: err.Error()}
	}
	if n.WarmupFidelity != FidelityFull && n.WarmupFidelity != FidelityFast {
		return &ConfigError{Field: "WarmupFidelity",
			Reason: fmt.Sprintf("unknown fidelity %q (want %q or %q)", n.WarmupFidelity, FidelityFull, FidelityFast)}
	}
	return nil
}
