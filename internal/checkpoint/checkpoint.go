// Package checkpoint defines the simulator's warm-state snapshot format: a
// versioned, checksummed, self-describing binary container plus the
// Snapshotter interface every stateful component implements. Restoring a
// checkpoint and continuing must be bit-identical to the uninterrupted run;
// the format is therefore strict rather than forgiving — sections are read
// in the exact order they were written, lengths are validated up front, and
// any mismatch is an error instead of a silent skip.
//
// Layout:
//
//	header:  magic u32 | version u16 | flags u16
//	section: nameLen u16 | name | payloadLen u32 | payload   (repeated)
//	trailer: crc32(IEEE) over everything before it, u32
//
// All integers are little-endian. The CRC is verified by NewReader before
// any section is parsed, so truncated or corrupted files fail cleanly.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

const (
	// Magic identifies a checkpoint file ("TCPC" in little-endian order).
	Magic uint32 = 0x43504354
	// Version is the current format version. Readers reject any other.
	// History: 1 = initial layout; 2 = machine identity records the warmup
	// fidelity and the cpu section carries the functional fast-forward
	// clock (docs/FASTFORWARD.md).
	Version uint16 = 2

	headerLen  = 8 // magic u32 + version u16 + flags u16
	trailerLen = 4 // crc32 u32
)

// ErrCorrupt is wrapped by every error caused by malformed checkpoint
// bytes (bad magic, failed CRC, truncated sections, length overruns), as
// opposed to structural mismatches against the restoring component.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated data")

// Snapshotter is implemented by every stateful simulator component, and
// required by type: prefetch.Prefetcher, workload.Generator and
// branch.Predictor embed it, so anything a machine can hold is
// checkpointable at compile time. Save serialises the component's dynamic
// state and cannot fail, because Writer cannot. Restore loads it back into
// an identically-configured component; it decodes bytes from disk or the
// network, so it validates structure (lengths, names) and returns an error
// on any mismatch rather than restoring partially. A composite writes its
// sub-components in the order of one list that both methods walk.
type Snapshotter interface {
	Save(w *Writer)
	Restore(r *Reader) error
}

// Writer serialises a checkpoint into an in-memory buffer. Components open
// named sections with Section and write scalars/slices into them; Finish
// closes the last section and appends the CRC trailer.
//
// Writes cannot fail (the buffer grows as needed), so neither the
// primitive methods nor Snapshotter.Save return an error.
type Writer struct {
	buf    []byte
	lenOff int // offset of the open section's length field, -1 when none
}

// NewWriter returns a Writer with the header already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16), lenOff: -1}
	var h [headerLen]byte
	binary.LittleEndian.PutUint32(h[0:], Magic)
	binary.LittleEndian.PutUint16(h[4:], Version)
	binary.LittleEndian.PutUint16(h[6:], 0) // flags, reserved
	w.Write(h[:])
	return w
}

// Write appends raw bytes to the buffer.
//
// Every scalar written to a checkpoint funnels through here — for a warm
// L2 that is hundreds of thousands of calls per snapshot — so the in-place
// fast path must not allocate; growth is split into the grow slow path.
//
//tcp:hotpath
func (w *Writer) Write(p []byte) {
	if len(w.buf)+len(p) > cap(w.buf) {
		w.grow(len(p))
	}
	n := len(w.buf)
	w.buf = w.buf[:n+len(p)]
	copy(w.buf[n:], p)
}

// grow reallocates the buffer with room for at least n more bytes.
//
//tcp:coldpath amortised-O(1) capacity doubling; runs once per buffer exhaustion, not per encoded value
func (w *Writer) grow(n int) {
	c := 2 * cap(w.buf)
	if c < len(w.buf)+n {
		c = len(w.buf) + n
	}
	buf := make([]byte, len(w.buf), c)
	copy(buf, w.buf)
	w.buf = buf
}

// Section closes the open section (if any) and starts a new one. Section
// names are literal and read back in the same order by Reader.Section; they
// exist to catch format drift, not to support random access.
func (w *Writer) Section(name string) {
	w.closeSection()
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(name)))
	w.Write(n[:])
	w.Write([]byte(name))
	w.lenOff = len(w.buf)
	var pl [4]byte
	w.Write(pl[:]) // payload length, backpatched on close
}

// closeSection backpatches the open section's payload length.
func (w *Writer) closeSection() {
	if w.lenOff < 0 {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[w.lenOff:], uint32(len(w.buf)-(w.lenOff+4)))
	w.lenOff = -1
}

// Finish closes the last section, appends the CRC trailer, and returns the
// complete checkpoint image. The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	w.closeSection()
	var c [trailerLen]byte
	binary.LittleEndian.PutUint32(c[:], crc32.ChecksumIEEE(w.buf))
	w.Write(c[:])
	return w.buf
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	var b [1]byte
	b[0] = v
	w.Write(b[:])
}

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.Write(b[:])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// I64 writes an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.Write([]byte(s))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Write(p)
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// Ints writes a length-prefixed []int, each element as an int64.
func (w *Writer) Ints(v []int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(int64(x))
	}
}

// Reader parses a checkpoint image produced by Writer. The CRC trailer,
// magic, and version are validated up front by NewReader; afterwards
// sections must be consumed strictly in write order via Section, and every
// section must be read exactly to its end before the next one opens.
//
// Errors are sticky: after the first failure every primitive returns the
// zero value and Err/Finish report the original error. Restore code can
// therefore read an entire section unconditionally and check once.
type Reader struct {
	data   []byte
	pos    int
	secEnd int // absolute end of the open section's payload, -1 when none
	err    error
}

// NewReader validates the header and CRC trailer of data and returns a
// Reader positioned at the first section. Arbitrary bytes fail cleanly
// with an error wrapping ErrCorrupt.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+trailer", ErrCorrupt, len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (computed %#x, stored %#x)", ErrCorrupt, got, want)
	}
	if m := binary.LittleEndian.Uint32(body[0:]); m != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint16(body[4:]); v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (have %d)", v, Version)
	}
	if f := binary.LittleEndian.Uint16(body[6:]); f != 0 {
		return nil, fmt.Errorf("checkpoint: unsupported flags %#x", f)
	}
	return &Reader{data: body, pos: headerLen, secEnd: -1}, nil
}

// failf records the first error; subsequent reads return zero values.
func (r *Reader) failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	return r.err
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Section finishes the open section and opens the next one, which must
// carry exactly the given name. Leftover unread payload in the previous
// section is an error: a component that wrote more than its restorer reads
// indicates format drift, not a recoverable condition.
func (r *Reader) Section(name string) error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 && r.pos != r.secEnd {
		return r.failf("checkpoint: %d unread bytes before section %q", r.secEnd-r.pos, name)
	}
	r.secEnd = -1
	if len(r.data)-r.pos < 2 {
		return r.failf("%w: truncated at section %q header", ErrCorrupt, name)
	}
	n := int(binary.LittleEndian.Uint16(r.data[r.pos:]))
	r.pos += 2
	if len(r.data)-r.pos < n {
		return r.failf("%w: truncated section name (want %d bytes)", ErrCorrupt, n)
	}
	got := string(r.data[r.pos : r.pos+n])
	r.pos += n
	if got != name {
		return r.failf("checkpoint: section %q, want %q", got, name)
	}
	if len(r.data)-r.pos < 4 {
		return r.failf("%w: truncated section %q length", ErrCorrupt, name)
	}
	plen := int(binary.LittleEndian.Uint32(r.data[r.pos:]))
	r.pos += 4
	if len(r.data)-r.pos < plen {
		return r.failf("%w: section %q payload %d bytes, only %d remain", ErrCorrupt, name, plen, len(r.data)-r.pos)
	}
	r.secEnd = r.pos + plen
	return nil
}

// Finish verifies that the open section was fully consumed and that no
// sections remain, completing a strict read of the whole image.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.secEnd >= 0 && r.pos != r.secEnd {
		return r.failf("checkpoint: %d unread bytes at end of final section", r.secEnd-r.pos)
	}
	end := r.pos
	if r.secEnd >= 0 {
		end = r.secEnd
	}
	if end != len(r.data) {
		return r.failf("checkpoint: %d trailing unread bytes", len(r.data)-end)
	}
	return nil
}

// take returns the next n payload bytes of the open section, bounds-checked.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.secEnd < 0 {
		r.failf("checkpoint: read outside any section")
		return nil
	}
	if r.secEnd-r.pos < n {
		r.failf("%w: section underrun (want %d bytes, %d left)", ErrCorrupt, n, r.secEnd-r.pos)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// sliceLen reads a u32 element count and validates that count*elemBytes
// fits in the remaining payload, bounding allocation on hostile input.
func (r *Reader) sliceLen(elemBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n*elemBytes > r.secEnd-r.pos {
		r.failf("%w: slice of %d elements overruns section", ErrCorrupt, n)
		return 0
	}
	return n
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool written by Writer.Bool. Any value other than 0 or 1 is
// an error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.failf("%w: invalid bool encoding", ErrCorrupt)
		return false
	}
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.sliceLen(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes reads a length-prefixed byte slice into a fresh copy.
func (r *Reader) Bytes() []byte {
	n := r.sliceLen(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// ReadBytes reads a length-prefixed byte slice that must have exactly
// len(dst) elements into dst.
func (r *Reader) ReadBytes(dst []byte) {
	n := r.sliceLen(1)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.failf("checkpoint: byte slice length %d, want %d", n, len(dst))
		return
	}
	copy(dst, r.take(n))
}

// U64s reads a length-prefixed []uint64 into a fresh slice.
func (r *Reader) U64s() []uint64 {
	n := r.sliceLen(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// ReadU64s reads a length-prefixed []uint64 that must have exactly
// len(dst) elements into dst.
func (r *Reader) ReadU64s(dst []uint64) {
	n := r.sliceLen(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.failf("checkpoint: uint64 slice length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// ReadU64sUpTo reads a length-prefixed []uint64 of at most len(dst)
// elements into the front of dst, without allocating, and returns its
// length. A longer slice is corrupt.
func (r *Reader) ReadU64sUpTo(dst []uint64) int {
	n := r.sliceLen(8)
	if r.err != nil {
		return 0
	}
	if n > len(dst) {
		r.failf("%w: uint64 slice length %d, max %d", ErrCorrupt, n, len(dst))
		return 0
	}
	for i := range dst[:n] {
		dst[i] = r.U64()
	}
	return n
}

// I64s reads a length-prefixed []int64 into a fresh slice.
func (r *Reader) I64s() []int64 {
	n := r.sliceLen(8)
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// ReadI64s reads a length-prefixed []int64 that must have exactly
// len(dst) elements into dst.
func (r *Reader) ReadI64s(dst []int64) {
	n := r.sliceLen(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.failf("checkpoint: int64 slice length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.I64()
	}
}

// F64s reads a length-prefixed []float64 into a fresh slice.
func (r *Reader) F64s() []float64 {
	n := r.sliceLen(8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// ReadInts reads a length-prefixed []int that must have exactly len(dst)
// elements into dst.
func (r *Reader) ReadInts(dst []int) {
	n := r.sliceLen(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.failf("checkpoint: int slice length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = r.Int()
	}
}

// Validate checks that data is a complete, uncorrupted checkpoint image of
// the current format Version without restoring anything: header, CRC
// trailer, and a full walk of the section framing. It is the gate for
// images of unknown provenance — e.g. warm images found on shared storage
// that may have been written by a host running a different simulator
// build — so a stale or foreign image is rejected (and re-simulated) before
// any component sees it.
func Validate(data []byte) error {
	_, err := Sections(data)
	return err
}

// SectionInfo describes one section of a checkpoint image: its name and
// payload length in bytes. The sequence of SectionInfos is the image's
// layout fingerprint — tests pin it against a golden file so a component
// changing its encoding without bumping Version is caught.
type SectionInfo struct {
	Name string
	Len  int
}

// Sections validates data like NewReader and walks the section framing,
// returning every section's name and payload length in order.
func Sections(data []byte) ([]SectionInfo, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	var out []SectionInfo
	pos := r.pos
	for pos < len(r.data) {
		if len(r.data)-pos < 2 {
			return nil, fmt.Errorf("%w: truncated section header", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(r.data[pos:]))
		pos += 2
		if len(r.data)-pos < n {
			return nil, fmt.Errorf("%w: truncated section name (want %d bytes)", ErrCorrupt, n)
		}
		name := string(r.data[pos : pos+n])
		pos += n
		if len(r.data)-pos < 4 {
			return nil, fmt.Errorf("%w: truncated section %q length", ErrCorrupt, name)
		}
		plen := int(binary.LittleEndian.Uint32(r.data[pos:]))
		pos += 4
		if len(r.data)-pos < plen {
			return nil, fmt.Errorf("%w: section %q payload %d bytes, only %d remain",
				ErrCorrupt, name, plen, len(r.data)-pos)
		}
		pos += plen
		out = append(out, SectionInfo{Name: name, Len: plen})
	}
	return out, nil
}

// WriteFile atomically writes a checkpoint image to path: the bytes land
// in a temporary file in the same directory first and are renamed into
// place, so a crash mid-write never leaves a partial checkpoint behind.
// The temporary name is unique per writer, so concurrent publishers of the
// same image (several sweep workers warming the same benchmark over shared
// storage) never interleave writes; the last rename wins with complete
// content.
func WriteFile(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadFile reads a checkpoint image written by WriteFile.
func ReadFile(path string) ([]byte, error) {
	return os.ReadFile(path)
}
