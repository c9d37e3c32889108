package sim

import (
	"errors"
	"math"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative MSHRs",
			Config{Mem: memsys.Config{MSHRs: -8}}, "Mem.MSHRs"},
		{"negative bus width",
			Config{Mem: memsys.Config{L1L2BusBytes: -32}}, "Mem.L1L2BusBytes"},
		{"negative L2 latency",
			Config{Mem: memsys.Config{L2Latency: -12}}, "Mem.L2Latency"},
		{"L2 block smaller than L1 block",
			Config{Mem: memsys.Config{
				L1D: addr.MustGeometry(32<<10, 1, 64),
				L2:  addr.MustGeometry(1<<20, 4, 32),
			}}, "Mem.L2"},
		{"warmup overflow",
			Config{Instructions: 2, Warmup: math.MaxUint64 - 1}, "Warmup"},
		{"unknown branch predictor",
			Config{CPU: cpu.Config{Predictor: "oracle"}}, "CPU.Predictor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted the config")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %T is not *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("test config invalid: %v", err)
	}
}

// TestRunSurfacesConfigError: the error path replaces the panic the
// defaulting logic used to hit deep inside component construction.
func TestRunSurfacesConfigError(t *testing.T) {
	bad := Config{Mem: memsys.Config{MSHRs: -2}}
	_, err := Run("mcf", TCP8K(), bad)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Run error = %v, want *ConfigError", err)
	}
}

// TestTCPWithPHTRoundsSetsToPowerOfTwo: a PHT byte budget that does not
// divide into a power-of-two set count used to panic in core.New; the
// factory now rounds the set count down.
func TestTCPWithPHTRoundsSetsToPowerOfTwo(t *testing.T) {
	for _, bytes := range []int{3 << 10, 5000, 8<<10 + 1} {
		f := TCPWithPHT(bytes, 0, false)
		res := MustRun("mcf", f, Config{Instructions: 5_000, Warmup: 10_000, Seed: 1})
		if res.CPU.Instructions == 0 {
			t.Errorf("PHT %dB: run produced no instructions", bytes)
		}
	}
}
