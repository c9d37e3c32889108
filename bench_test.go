package tagprefetch

// Micro-benchmarks of the telemetry layer on the hottest simulator path.
// The paper's figures and ablations are regenerated by the commands, not
// here: tcpfigs -exp <row>.

import (
	"io"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/core"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/telemetry"
)

// missPath drives the memory hierarchy's hot miss path directly: a strided
// address walk far larger than the L1, through a TCP-8K prefetcher, so
// nearly every access exercises miss handling, MSHR booking, L2 fill and
// prefetch issue. tel == nil is the disabled-telemetry baseline (every
// event goes through the shared no-op tracer).
func missPath(b *testing.B, tel *telemetry.Run) {
	memCfg := memsys.DefaultConfig()
	pf := core.New(core.TCP8K(memCfg.L1D))
	mem := memsys.New(memCfg, pf)
	if tel != nil {
		mem.AttachTelemetry(tel.Registry.Sub("memsys"), tel.Tracer)
	}
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addr.Addr(uint64(i) * 4096 % (1 << 28))
		mem.Access(a, 0x400000, false, now)
		now += 8
	}
}

// BenchmarkMissPathTelemetryOff and ...On bound the cost of the telemetry
// layer on the hottest simulator path. Off must match the pre-telemetry
// baseline (counters are plain single-writer fields, events a single
// branch); On pays for JSONL encoding into a discarded sink.
func BenchmarkMissPathTelemetryOff(b *testing.B) { missPath(b, nil) }

func BenchmarkMissPathTelemetryOn(b *testing.B) {
	run := telemetry.NewRun(0)
	run.Tracer = telemetry.NewTracer(io.Discard, telemetry.TracerOptions{MinLevel: telemetry.LevelDebug})
	missPath(b, run)
}

// TestDisabledTracerZeroAllocPerEvent is the integration-level guarantee
// behind BenchmarkMissPathTelemetryOff: with telemetry disabled, emitting
// an event through the default no-op tracer allocates nothing.
func TestDisabledTracerZeroAllocPerEvent(t *testing.T) {
	tr := telemetry.Nop()
	ev := telemetry.Event{Cycle: 1, Type: "prefetch.issued",
		Level: telemetry.LevelInfo, Addr: 0x1000, PC: 0x400000}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per event, want 0", allocs)
	}
}
