package trace

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"tagprefetch/internal/addr"
)

func g() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

func TestMakeMiss(t *testing.T) {
	geo := g()
	m := MakeMiss(geo, 0x12345678, 0x400100, 99, true)
	if m.Addr != geo.Block(0x12345678) {
		t.Errorf("addr = %#x", m.Addr)
	}
	if m.Index != geo.Index(0x12345678) || m.Tag != geo.Tag(0x12345678) {
		t.Errorf("index/tag = %d/%d", m.Index, m.Tag)
	}
	if m.Cycle != 99 || !m.Write || m.PC != 0x400100 {
		t.Errorf("miss = %+v", m)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	geo := g()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Miss{
		MakeMiss(geo, 0x1000, 0x400000, 1, false),
		MakeMiss(geo, 0xdeadbe00, 0x400008, 2, true),
		MakeMiss(geo, 0x7fffffffff00, 0x400010, 1<<40, false),
	}
	for _, m := range want {
		if err := w.Write(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("count = %d", w.Count())
	}

	r := NewReader(&buf, geo)
	for i, wm := range want {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if m != wm {
			t.Errorf("record %d = %+v, want %+v", i, m, wm)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, g())
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF on empty trace, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), g())
	if _, err := r.Read(); err == nil {
		t.Error("expected error on bad magic")
	}
}

func TestReaderTruncated(t *testing.T) {
	geo := g()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(MakeMiss(geo, 0x1000, 0, 1, false))
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-4]
	r := NewReader(bytes.NewReader(trunc), geo)
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF on truncated record, got %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	geo := g()
	f := func(addrs []uint32, pcs []uint16, writes []bool) bool {
		n := len(addrs)
		if len(pcs) < n {
			n = len(pcs)
		}
		if len(writes) < n {
			n = len(writes)
		}
		var want []Miss
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := 0; i < n; i++ {
			m := MakeMiss(geo, addr.Addr(addrs[i]), addr.Addr(pcs[i]), int64(i), writes[i])
			want = append(want, m)
			if err := w.Write(m); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf, geo)
		for i := 0; i < n; i++ {
			got, err := r.Read()
			if err != nil || got != want[i] {
				return false
			}
		}
		_, err := r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
