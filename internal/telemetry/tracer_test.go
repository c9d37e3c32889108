package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNopTracerZeroAllocs(t *testing.T) {
	tr := Nop()
	ev := Event{Cycle: 123, Type: "prefetch.issued", Level: LevelInfo, Addr: 0x1000}
	allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) })
	if allocs != 0 {
		t.Errorf("Nop tracer Emit allocates %v per event, want 0", allocs)
	}
}

func TestTracerJSONLAndLevels(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{MinLevel: LevelInfo})
	tr.Emit(Event{Cycle: 1, Type: "prefetch.issued", Level: LevelInfo, Addr: 0x2000, PC: 0x400000})
	tr.Emit(Event{Cycle: 2, Type: "prefetch.dropped", Level: LevelDebug}) // filtered
	tr.Emit(Event{Cycle: 3, Type: "mshr.stall", Level: LevelInfo, Value: 42})
	tr.Flush()

	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (debug filtered)", len(lines))
	}
	if lines[0]["type"] != "prefetch.issued" || lines[0]["addr"] != "0x2000" {
		t.Errorf("line 0 = %v", lines[0])
	}
	if lines[1]["value"] != float64(42) {
		t.Errorf("line 1 = %v", lines[1])
	}
	if tr.Written() != 2 {
		t.Errorf("written = %d", tr.Written())
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, TracerOptions{BufferEvents: 4, MaxEvents: 6})
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Cycle: int64(i), Type: "e", Level: LevelInfo})
	}
	tr.Flush()
	if got := strings.Count(buf.String(), "\n"); got != 6 {
		t.Errorf("events written = %d, want 6 (MaxEvents)", got)
	}
	if tr.Dropped() != 4 {
		t.Errorf("dropped = %d, want 4", tr.Dropped())
	}
}
