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
}

func TestZeroByteTransferIsFree(t *testing.T) {
	b := New("x", 16)
	if done := b.Transfer(5, 0); done != 5 {
		t.Errorf("done = %d, want 5", done)
	}
	// Nor does it occupy the bus: the next transfer starts at once.
	if done := b.Transfer(5, 16); done != 6 {
		t.Errorf("next done = %d, want 6", done)
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
