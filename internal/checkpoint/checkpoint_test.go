package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// sample holds one value of every primitive. Its Snapshot lays them out in
// two sections, the way a component would.
type sample struct {
	u8     uint8
	t, f   bool
	u32    uint32
	u64    uint64
	i64    int64
	n      int
	f64    float64
	s      string
	b      [3]byte
	u64s   [3]uint64
	i64s   [3]int64
	f64s   [2]float64
	ints   [2]int
	run    []uint64 // variable length, at most maxRun
	maxRun int
}

func (s *sample) Snapshot(c *Codec) {
	c.Section("alpha")
	c.U8(&s.u8)
	c.Bool(&s.t)
	c.Bool(&s.f)
	c.U32(&s.u32)
	c.U64(&s.u64)
	c.I64(&s.i64)
	c.Int(&s.n)
	c.F64(&s.f64)
	c.Section("beta")
	c.String(&s.s)
	c.Bytes(s.b[:])
	c.U64s(s.u64s[:])
	c.I64s(s.i64s[:])
	c.F64s(s.f64s[:])
	c.Ints(s.ints[:])
	n := c.Count(len(s.run), s.maxRun)
	s.run = slices.Grow(s.run[:0], n)[:n]
	for i := range s.run {
		c.U64(&s.run[i])
	}
}

// full returns a sample with every field set away from its zero value.
func full() *sample {
	return &sample{
		u8: 0xAB, t: true, u32: 0xDEADBEEF, u64: math.MaxUint64 - 1, i64: -42, n: -7, f64: 3.5,
		s: "hello", b: [3]byte{1, 2, 3}, u64s: [3]uint64{10, 20, 30}, i64s: [3]int64{-1, 0, 1},
		f64s: [2]float64{0.5, -0.25}, ints: [2]int{4, 5}, run: []uint64{7, 8}, maxRun: 4,
	}
}

// buildImage encodes full().
func buildImage() []byte { return Encode(full()) }

// snapFunc adapts a function to Snapshotter, for hand-built layouts.
type snapFunc func(c *Codec)

func (f snapFunc) Snapshot(c *Codec) { f(c) }

// decodeWith decodes img through fn and returns the decode error.
func decodeWith(img []byte, fn func(c *Codec)) error { return Decode(img, snapFunc(fn)) }

func TestRoundTrip(t *testing.T) {
	img := buildImage()
	got := &sample{maxRun: 4}
	if err := Decode(img, got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if want := full(); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	if again := Encode(got); !bytes.Equal(again, img) {
		t.Error("re-encoding the decoded sample is not byte-identical")
	}
}

// reCRC recomputes and patches the trailer so body mutations reach the
// section parser instead of dying at the CRC gate.
func reCRC(img []byte) []byte {
	body := img[:len(img)-trailerLen]
	binary.LittleEndian.PutUint32(img[len(img)-trailerLen:], crc32.ChecksumIEEE(body))
	return img
}

func TestDecodeRejectsCorruptImages(t *testing.T) {
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
		if err := Decode(tc.data, &sample{maxRun: 4}); err == nil {
			t.Errorf("%s: Decode accepted corrupt image", tc.name)
		}
	}
	if err := Decode(valid[:headerLen+trailerLen-1], &sample{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short image error = %v, want ErrCorrupt", err)
	}
}

func TestSectionDiscipline(t *testing.T) {
	img := buildImage()

	if err := decodeWith(img, func(c *Codec) { c.Section("gamma") }); err == nil {
		t.Error("Section with wrong name succeeded")
	}

	// Unread payload left behind when the next section opens.
	err := decodeWith(img, func(c *Codec) {
		var v uint8
		c.Section("alpha")
		c.U8(&v)
		c.Section("beta")
	})
	if err == nil {
		t.Error("Section over unread payload succeeded")
	}

	// Unread payload at the end of the decode.
	if err := decodeWith(img, func(c *Codec) { c.Section("alpha") }); err == nil {
		t.Error("Decode with unread payload succeeded")
	}

	// Reading past the end of a section is an underrun, not a spill into
	// the next section.
	err = decodeWith(img, func(c *Codec) {
		c.Section("alpha")
		for i := 0; i < 64; i++ {
			var v uint64
			c.U64(&v)
		}
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("section underrun error = %v, want ErrCorrupt", err)
	}

	// Reading with no section open.
	empty := Encode(snapFunc(func(c *Codec) { c.Section("only") }))
	if err := decodeWith(empty, func(c *Codec) {
		var v uint8
		c.U8(&v)
	}); err == nil {
		t.Error("read outside any section succeeded")
	}
}

func TestStickyErrors(t *testing.T) {
	var first, later error
	err := decodeWith(buildImage(), func(c *Codec) {
		c.Section("alpha")
		for i := 0; i < 64; i++ {
			var v uint64
			c.U64(&v)
		}
		first = c.err
		// Every primitive after the failure leaves its pointee alone.
		u, s, b := uint64(9), "kept", true
		c.U64(&u)
		c.String(&s)
		c.Bool(&b)
		if u != 9 || s != "kept" || !b {
			t.Errorf("decodes after failure changed values: %d %q %v", u, s, b)
		}
		if n := c.Count(3, 8); n != 0 {
			t.Errorf("Count after failure = %d, want 0", n)
		}
		if c.Err() != first {
			t.Errorf("Err after failure = %v, want %v", c.Err(), first)
		}
		c.Fail(errors.New("second failure"))
		later = c.err
	})
	if first == nil {
		t.Fatal("expected an error")
	}
	if later != first || err != first {
		t.Errorf("error not sticky: %v, then %v, Decode returned %v", first, later, err)
	}
}

func TestInvalidBoolAndSliceGuards(t *testing.T) {
	u8Image := func(v uint8) []byte {
		return Encode(snapFunc(func(c *Codec) {
			c.Section("s")
			c.U8(&v)
		}))
	}
	// A bool byte other than 0/1 is rejected.
	if err := decodeWith(u8Image(2), func(c *Codec) {
		var b bool
		c.Section("s")
		c.Bool(&b)
	}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("invalid bool error = %v, want ErrCorrupt", err)
	}

	// A hostile count is caught before allocation.
	huge := Encode(snapFunc(func(c *Codec) {
		c.Section("s")
		c.Count(1<<30, math.MaxInt) // claims a gigantic run with no payload behind it
	}))
	if err := decodeWith(huge, func(c *Codec) {
		c.Section("s")
		if n := c.Count(0, math.MaxInt); n != 0 {
			t.Errorf("oversized count decoded as %d", n)
		}
	}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized count error = %v, want ErrCorrupt", err)
	}

	// Exact-length tables reject a length mismatch.
	three := Encode(snapFunc(func(c *Codec) {
		c.Section("s")
		c.U64s([]uint64{1, 2, 3})
	}))
	if err := decodeWith(three, func(c *Codec) {
		var two [2]uint64
		c.Section("s")
		c.U64s(two[:])
	}); err == nil {
		t.Error("U64s accepted a length mismatch")
	}

	// A count above its bound is corrupt.
	if err := Decode(buildImage(), &sample{maxRun: 1}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("count over its bound = %v, want ErrCorrupt", err)
	}
}

func TestCountBoundsRuns(t *testing.T) {
	img := Encode(snapFunc(func(c *Codec) {
		c.Section("s")
		for _, run := range [][]uint64{{7, 8}, nil} {
			c.Count(len(run), 3)
			for i := range run {
				c.U64(&run[i])
			}
		}
	}))
	var runs [][]uint64
	err := decodeWith(img, func(c *Codec) {
		c.Section("s")
		for range 2 {
			run := make([]uint64, c.Count(0, 3))
			for i := range run {
				c.U64(&run[i])
			}
			runs = append(runs, run)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || !slices.Equal(runs[0], []uint64{7, 8}) || len(runs[1]) != 0 {
		t.Errorf("decoded runs %v, want [[7 8] []]", runs)
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
	if err := Decode(got, &sample{maxRun: 4}); err != nil {
		t.Errorf("reloaded image invalid: %v", err)
	}
}
