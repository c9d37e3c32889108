package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Level classifies event importance for sink-side filtering.
type Level uint8

// Event levels, in ascending importance.
const (
	LevelDebug Level = iota
	LevelInfo
)

// String returns "debug" or "info".
func (l Level) String() string {
	if l == LevelDebug {
		return "debug"
	}
	return "info"
}

// ParseLevel maps "debug"/"info" to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	}
	return LevelInfo, fmt.Errorf("telemetry: unknown level %q", s)
}

// Event is one discrete simulator occurrence (a prefetch issued, an MSHR
// stall, a PHT eviction...). It is a flat value type so that constructing
// and emitting one costs no allocation, which keeps the disabled-tracer
// hot path free.
type Event struct {
	Cycle int64
	Type  string // dot-separated, e.g. "prefetch.issued"
	Level Level
	Addr  uint64 // block or table address, 0 if not applicable
	PC    uint64 // program counter, 0 if not applicable
	Value int64  // event-specific scalar (latency, count, ...)
	Note  string // free-form annotation (bench name on run.start, ...)
}

// Tracer collects Events and writes them as JSON Lines. The zero-cost
// default is Nop(): components hold a non-nil *Tracer at all times, so the
// hot path needs no nil checks — a disabled tracer's Emit is one branch.
//
// Buffering is bounded: events accumulate in a fixed-capacity buffer that
// is flushed to the sink when full; once MaxEvents have been written,
// further events are dropped and counted instead of growing the output
// without bound.
type Tracer struct {
	enabled bool
	min     Level
	max     uint64 // cap on events written (0 = unlimited)

	mu      sync.Mutex
	w       io.Writer
	enc     *json.Encoder
	buf     []Event
	written uint64
	dropped atomic.Uint64
}

// TracerOptions configures NewTracer. Zero fields take defaults.
type TracerOptions struct {
	// MinLevel drops events below this level at the emit site.
	MinLevel Level
	// BufferEvents is the in-memory buffer capacity before a flush
	// (default 4096).
	BufferEvents int
	// MaxEvents bounds the total number of events written; once reached,
	// events are dropped and counted (default 0: unlimited).
	MaxEvents uint64
}

var nop = &Tracer{}

// Nop returns the shared disabled tracer: Emit is a no-op costing one
// branch and zero allocations.
func Nop() *Tracer { return nop }

// NewTracer creates an enabled tracer writing JSONL to w.
func NewTracer(w io.Writer, opts TracerOptions) *Tracer {
	if opts.BufferEvents <= 0 {
		opts.BufferEvents = 4096
	}
	return &Tracer{
		enabled: true,
		min:     opts.MinLevel,
		max:     opts.MaxEvents,
		w:       w,
		enc:     json.NewEncoder(w),
		buf:     make([]Event, 0, opts.BufferEvents),
	}
}

// Enabled reports whether events at level l would be recorded. Call sites
// use it to skip expensive event-field computation.
//
// Consulted before building event fields on per-cycle paths.
func (t *Tracer) Enabled(l Level) bool { return t.enabled && l >= t.min }

// Emit records ev. Disabled tracers and filtered levels return
// immediately with zero allocations: the whole slow path lives in
// emitSlow so this gate stays small enough to inline into per-cycle code.
//
// The disabled-tracer fast path is one branch; anything that
// can allocate belongs in emitSlow.
func (t *Tracer) Emit(ev Event) {
	if !t.enabled || ev.Level < t.min {
		return
	}
	t.emitSlow(ev)
}

// emitSlow buffers ev on an enabled tracer, flushing to the sink when the
// buffer fills. The append never grows the buffer: capacity is fixed at
// construction and flushLocked resets the length.
//
// It runs only on enabled tracers past the level filter.
func (t *Tracer) emitSlow(ev Event) {
	t.mu.Lock()
	if t.max > 0 && t.written+uint64(len(t.buf)) >= t.max {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.buf = append(t.buf, ev)
	full := len(t.buf) == cap(t.buf)
	if full {
		t.flushLocked()
	}
	t.mu.Unlock()
}

type eventJSON struct {
	Cycle int64  `json:"cycle"`
	Type  string `json:"type"`
	Level string `json:"level"`
	Addr  string `json:"addr,omitempty"`
	PC    string `json:"pc,omitempty"`
	Value int64  `json:"value,omitempty"`
	Note  string `json:"note,omitempty"`
}

func (t *Tracer) flushLocked() {
	for _, ev := range t.buf {
		ej := eventJSON{
			Cycle: ev.Cycle,
			Type:  ev.Type,
			Level: ev.Level.String(),
			Value: ev.Value,
			Note:  ev.Note,
		}
		if ev.Addr != 0 {
			ej.Addr = fmt.Sprintf("0x%x", ev.Addr)
		}
		if ev.PC != 0 {
			ej.PC = fmt.Sprintf("0x%x", ev.PC)
		}
		if err := t.enc.Encode(ej); err != nil {
			// A failing sink cannot stall the simulation: drop the rest.
			t.dropped.Add(uint64(len(t.buf)))
			t.buf = t.buf[:0]
			return
		}
		t.written++
	}
	t.buf = t.buf[:0]
}

// Flush writes all buffered events to the sink.
func (t *Tracer) Flush() {
	if !t.enabled {
		return
	}
	t.mu.Lock()
	t.flushLocked()
	t.mu.Unlock()
}

// Written returns the number of events written to the sink so far.
func (t *Tracer) Written() uint64 {
	if !t.enabled {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.written
}

// Dropped returns the number of events dropped (MaxEvents reached or sink
// failure).
func (t *Tracer) Dropped() uint64 { return t.dropped.Load() }

// defaultTracer is the process-wide tracer used by code without run-scoped
// plumbing (e.g. stats.Geomean clamp warnings). It starts as Nop().
var defaultTracer atomic.Pointer[Tracer]

func init() { defaultTracer.Store(nop) }

// Default returns the process-wide default tracer (never nil).
func Default() *Tracer { return defaultTracer.Load() }

// SetDefault installs t as the process-wide default tracer; nil restores
// the no-op tracer.
func SetDefault(t *Tracer) {
	if t == nil {
		t = nop
	}
	defaultTracer.Store(t)
}
