package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"
)

// buildImage writes one checkpoint exercising every primitive, in two
// sections, and returns the finished image.
func buildImage() []byte {
	w := NewWriter()
	w.Section("alpha")
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64 - 1)
	w.I64(-42)
	w.Int(-7)
	w.F64(3.5)
	w.Section("beta")
	w.String("hello")
	w.Bytes([]byte{1, 2, 3})
	w.U64s([]uint64{10, 20, 30})
	w.I64s([]int64{-1, 0, 1})
	w.F64s([]float64{0.5, -0.25})
	w.Ints([]int{4, 5})
	return w.Finish()
}

func TestRoundTrip(t *testing.T) {
	img := buildImage()
	r, err := NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("alpha"); err != nil {
		t.Fatalf("Section(alpha): %v", err)
	}
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x, want 0xAB", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round-trip mismatch")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64-1 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if err := r.Section("beta"); err != nil {
		t.Fatalf("Section(beta): %v", err)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Bytes = %v", got)
	}
	var u3 [3]uint64
	r.ReadU64s(u3[:])
	if u3 != [3]uint64{10, 20, 30} {
		t.Errorf("ReadU64s = %v", u3)
	}
	if got := r.I64s(); len(got) != 3 || got[0] != -1 || got[2] != 1 {
		t.Errorf("I64s = %v", got)
	}
	if got := r.F64s(); len(got) != 2 || got[0] != 0.5 || got[1] != -0.25 {
		t.Errorf("F64s = %v", got)
	}
	var i2 [2]int
	r.ReadInts(i2[:])
	if i2 != [2]int{4, 5} {
		t.Errorf("ReadInts = %v", i2)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// reCRC recomputes and patches the trailer so body mutations reach the
// section parser instead of dying at the CRC gate.
func reCRC(img []byte) []byte {
	body := img[:len(img)-trailerLen]
	binary.LittleEndian.PutUint32(img[len(img)-trailerLen:], crc32.ChecksumIEEE(body))
	return img
}

func TestNewReaderRejectsCorruptImages(t *testing.T) {
	valid := buildImage()
	flip := func(off int) []byte {
		img := append([]byte(nil), valid...)
		img[off] ^= 0xFF
		return img
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", valid[:headerLen+trailerLen-1]},
		{"crc mismatch", flip(headerLen + 1)},
		{"truncated", valid[:len(valid)-5]},
		{"bad magic", reCRC(flip(0))},
		{"bad version", reCRC(flip(4))},
		{"bad flags", reCRC(flip(6))},
	}
	for _, tc := range cases {
		if _, err := NewReader(tc.data); err == nil {
			t.Errorf("%s: NewReader accepted corrupt image", tc.name)
		}
	}
	if _, err := NewReader(valid[:headerLen+trailerLen-1]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short image error = %v, want ErrCorrupt", err)
	}
}

func TestSectionDiscipline(t *testing.T) {
	img := buildImage()

	// Wrong section name.
	r, _ := NewReader(img)
	if err := r.Section("gamma"); err == nil {
		t.Error("Section with wrong name succeeded")
	}

	// Unread payload left behind when the next section opens.
	r, _ = NewReader(img)
	if err := r.Section("alpha"); err != nil {
		t.Fatal(err)
	}
	r.U8()
	if err := r.Section("beta"); err == nil {
		t.Error("Section over unread payload succeeded")
	}

	// Unread payload at Finish.
	r, _ = NewReader(img)
	r.Section("alpha") //nolint:errcheck
	if err := r.Finish(); err == nil {
		t.Error("Finish with unread payload succeeded")
	}

	// Reading past the end of a section is an underrun, not a spill into
	// the next section.
	r, _ = NewReader(img)
	r.Section("alpha") //nolint:errcheck
	for i := 0; i < 64; i++ {
		r.U64()
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("section underrun error = %v, want ErrCorrupt", r.Err())
	}

	// Reading with no section open.
	w := NewWriter()
	w.Section("only")
	empty := w.Finish()
	r, _ = NewReader(empty)
	r.U8()
	if r.Err() == nil {
		t.Error("read outside any section succeeded")
	}
}

func TestStickyErrors(t *testing.T) {
	r, _ := NewReader(buildImage())
	r.Section("alpha") //nolint:errcheck
	for i := 0; i < 64; i++ {
		r.U64()
	}
	first := r.Err()
	if first == nil {
		t.Fatal("expected an error")
	}
	// All subsequent reads are zero-valued and the error is unchanged.
	if r.U64() != 0 || r.String() != "" || r.Bytes() != nil {
		t.Error("reads after failure returned non-zero values")
	}
	if r.Err() != first {
		t.Errorf("error not sticky: %v then %v", first, r.Err())
	}
}

func TestInvalidBoolAndSliceGuards(t *testing.T) {
	// A bool byte other than 0/1 is rejected.
	w := NewWriter()
	w.Section("s")
	w.U8(2)
	r, _ := NewReader(w.Finish())
	r.Section("s") //nolint:errcheck
	r.Bool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("invalid bool error = %v, want ErrCorrupt", r.Err())
	}

	// A hostile element count is caught before allocation.
	w = NewWriter()
	w.Section("s")
	w.U32(1 << 30) // claims a gigantic slice with no payload behind it
	r, _ = NewReader(w.Finish())
	r.Section("s") //nolint:errcheck
	if got := r.U64s(); got != nil {
		t.Errorf("oversized slice read returned %d elements", len(got))
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("oversized slice error = %v, want ErrCorrupt", r.Err())
	}

	// Exact-length readers reject a length mismatch.
	w = NewWriter()
	w.Section("s")
	w.U64s([]uint64{1, 2, 3})
	r, _ = NewReader(w.Finish())
	r.Section("s") //nolint:errcheck
	var two [2]uint64
	r.ReadU64s(two[:])
	if r.Err() == nil {
		t.Error("ReadU64s accepted a length mismatch")
	}

	// The bounded reader rejects a slice longer than its buffer.
	w = NewWriter()
	w.Section("s")
	w.U64s([]uint64{1, 2})
	r, _ = NewReader(w.Finish())
	r.Section("s") //nolint:errcheck
	var one [1]uint64
	if n := r.ReadU64sUpTo(one[:]); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("ReadU64sUpTo over capacity = %d, %v, want 0 and ErrCorrupt", n, r.Err())
	}
}

func TestReadU64sUpTo(t *testing.T) {
	w := NewWriter()
	w.Section("s")
	w.U64s([]uint64{7, 8})
	w.U64s(nil)
	r, _ := NewReader(w.Finish())
	r.Section("s") //nolint:errcheck
	buf := []uint64{0, 0, 9}
	if n := r.ReadU64sUpTo(buf); n != 2 || buf[0] != 7 || buf[1] != 8 || buf[2] != 9 {
		t.Errorf("ReadU64sUpTo = %d %v, want 2 [7 8 9]", n, buf)
	}
	if n := r.ReadU64sUpTo(buf); n != 0 {
		t.Errorf("empty ReadU64sUpTo = %d", n)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	img := buildImage()
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := WriteFile(path, img); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(img) {
		t.Error("ReadFile returned different bytes")
	}
	if _, err := NewReader(got); err != nil {
		t.Errorf("reloaded image invalid: %v", err)
	}
}
