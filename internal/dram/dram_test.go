package dram

import (
	"testing"

	"tagprefetch/internal/bus"
)

func TestReadLatencyNoBus(t *testing.T) {
	m := New(70, nil)
	if done := m.Read(100, 64); done != 170 {
		t.Errorf("done = %d, want 170", done)
	}
}

func TestReadWithBus(t *testing.T) {
	b := bus.New("mem", 8)
	m := New(70, b)
	// 64B over an 8B/cycle bus = 8 cycles after the 70-cycle access.
	if done := m.Read(0, 64); done != 78 {
		t.Errorf("done = %d, want 78", done)
	}
	// Second read queues behind the first transfer.
	done2 := m.Read(0, 64)
	if done2 != 86 {
		t.Errorf("done2 = %d, want 86", done2)
	}
}

func TestWriteOccupiesBusOnly(t *testing.T) {
	b := bus.New("mem", 8)
	m := New(70, b)
	if done := m.Write(10, 64); done != 18 {
		t.Errorf("writeback done = %d, want 18", done)
	}
	// A read after the writeback queues behind it on the bus.
	if done := m.Read(0, 64); done != 78 { // access ready at 70, bus free at 18
		t.Errorf("read done = %d, want 78", done)
	}
}

func TestNegativeLatencyClamped(t *testing.T) {
	m := New(-5, nil)
	if done := m.Read(100, 64); done != 100 {
		t.Errorf("done = %d, want 100 (latency clamped to 0)", done)
	}
}
