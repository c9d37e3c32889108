package bus

import (
	"testing"
	"testing/quick"
)

func TestTransferIdleBus(t *testing.T) {
	b := New("l1l2", 32)
	if done := b.Transfer(100, 32); done != 101 {
		t.Errorf("done = %d, want 101", done)
	}
	if done := b.Transfer(200, 64); done != 202 {
		t.Errorf("done = %d, want 202", done)
	}
	// Partial width rounds up.
	if done := b.Transfer(300, 33); done != 302 {
		t.Errorf("done = %d, want 302", done)
	}
}

func TestTransferQueues(t *testing.T) {
	b := New("mem", 8)
	first := b.Transfer(10, 64) // 8 cycles: done at 18
	if first != 18 {
		t.Fatalf("first done = %d, want 18", first)
	}
	// Second request arrives while busy: starts at 18.
	second := b.Transfer(12, 64)
	if second != 26 {
		t.Errorf("second done = %d, want 26", second)
	}
	s := b.Stats(26)
	if s.Transfers != 2 || s.Bytes != 128 {
		t.Errorf("stats = %+v", s)
	}
	if s.WaitCycles != 6 { // second waited 18-12
		t.Errorf("wait = %d, want 6", s.WaitCycles)
	}
	if s.BusyCycles != 16 {
		t.Errorf("busy = %d, want 16", s.BusyCycles)
	}
	if s.Utilization <= 0.6 || s.Utilization > 1.0 {
		t.Errorf("utilization = %v", s.Utilization)
	}
}

func TestZeroByteTransferIsFree(t *testing.T) {
	b := New("x", 16)
	if done := b.Transfer(5, 0); done != 5 {
		t.Errorf("done = %d, want 5", done)
	}
	if b.Stats(10).Transfers != 0 {
		t.Errorf("zero transfer counted")
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	New("bad", 0)
}

func TestCompletionMonotonicProperty(t *testing.T) {
	// For monotonically non-decreasing request times, completion times are
	// monotonically non-decreasing and never precede the request.
	f := func(deltas []uint8, sizes []uint8) bool {
		b := New("p", 4)
		now := int64(0)
		last := int64(0)
		n := len(deltas)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			now += int64(deltas[i] % 16)
			size := int(sizes[i]%64) + 1
			done := b.Transfer(now, size)
			if done < now || done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUtilizationZeroHorizon(t *testing.T) {
	b := New("x", 8)
	b.Transfer(0, 8)
	if u := b.Stats(0).Utilization; u != 0 {
		t.Errorf("utilization = %v, want 0", u)
	}
}
