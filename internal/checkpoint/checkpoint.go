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
// All integers are little-endian. The CRC is verified by Decode before
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
	// Version is the current format version. Decode rejects any other.
	// History: 1 = initial layout; 2 = machine identity records the warmup
	// fidelity and the cpu section carries the functional fast-forward
	// clock (docs/FASTFORWARD.md); 3 = the tcp section codes only the
	// PHT's materialised sets, and the cpu LSQ ring and the dead-block
	// predictor's counters are gone; 4 = the dbcp and prefetch.markov
	// sections code their correlation tables as the tcp section codes its
	// PHT (prefetch.Table), materialised sets only.
	Version uint16 = 4

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
// checkpointable at compile time. Snapshot walks the component's dynamic
// state through c once, in image order: an encoding Codec writes each
// value, a decoding one overwrites it from the image, so the layout is
// written in one place and the two directions cannot disagree. Decoding
// loads into an identically-configured component; the image comes from
// disk or the network, so Snapshot validates structure (lengths, names,
// ranges) with c.Len and c.Count, and calls c.Fail when a decoded value
// is out of range. The error is built only on that failure path: a
// formatted error built on every call would box its arguments on every
// encode. A composite snapshots its sub-components in the order of one
// list.
type Snapshotter interface {
	Snapshot(c *Codec)
}

// Codec encodes a Snapshotter into a checkpoint image or decodes one back
// into it, through the same calls. Every primitive takes a pointer or a
// slice: an encoding Codec appends what it points to, a decoding one
// overwrites it.
//
// Decode errors are sticky: after the first failure every primitive
// leaves its pointee alone, Count returns 0, Err returns the error, and
// Decode reports it. A Snapshot method can therefore walk a whole section
// unconditionally and stop only where a decoded value is about to index
// or size something. Encoding cannot fail.
type Codec struct {
	buf      []byte
	pos      int    // decode: read offset into buf
	sec      int    // encode: offset of the open section's length field; decode: end of its payload; -1 when none
	name     string // open section's name, for decode errors
	decoding bool
	err      error
}

// Encode returns the complete checkpoint image of s: header, s's
// sections, CRC trailer.
func Encode(s Snapshotter) []byte {
	c := &Codec{buf: make([]byte, headerLen, 1<<16), sec: -1}
	binary.LittleEndian.PutUint32(c.buf[0:], Magic)
	binary.LittleEndian.PutUint16(c.buf[4:], Version) // flags, reserved, stay 0
	s.Snapshot(c)
	c.closeSection()
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf))
}

// Decode loads image data into s. The CRC trailer, magic and version are
// validated before s sees a byte, so arbitrary bytes fail cleanly with an
// error wrapping ErrCorrupt; afterwards sections must be consumed strictly
// in write order, each exactly to its end, and no bytes may remain.
func Decode(data []byte, s Snapshotter) error {
	c, err := newDecoder(data)
	if err != nil {
		return err
	}
	s.Snapshot(c)
	return c.finish()
}

// newDecoder validates the header and CRC trailer of data and returns a
// decoding Codec positioned at the first section.
func newDecoder(data []byte) (*Codec, error) {
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
	return &Codec{buf: body, pos: headerLen, sec: -1, decoding: true}, nil
}

// Decoding reports whether c decodes. Snapshot methods branch on it only
// where the image layout is rebuilt rather than copied: a table whose
// decoded entries are re-inserted (MSHR entries, TCP's sparse PHT, a
// map), or state a decode must re-derive (parked components, published
// counters, a chase stream's position).
func (c *Codec) Decoding() bool { return c.decoding }

// Fail records err as the decode error unless one is already recorded.
// Encoding ignores it: an encoder writes whatever state it holds.
func (c *Codec) Fail(err error) {
	if !c.decoding {
		return
	}
	if c.err == nil {
		c.err = err
	}
	c.sec = -1 // no section is open any more, so every later take fails
}

// Err returns the first decode error, or nil while decoding is sound.
// Encoding never fails, so an encoding Codec always returns nil.
func (c *Codec) Err() error { return c.err }

// Section closes the open section and opens the next one. Encoding writes
// the name; decoding requires the next section to carry exactly this name
// and the previous one to have been consumed to its end. Names exist to
// catch format drift, not to support random access.
func (c *Codec) Section(name string) {
	if !c.decoding {
		c.closeSection()
		binary.LittleEndian.PutUint16(c.put(2), uint16(len(name)))
		copy(c.put(len(name)), name)
		c.sec = len(c.buf)
		c.put(4) // payload length, backpatched on close
		return
	}
	if c.err != nil {
		return
	}
	if c.sec >= 0 && c.pos != c.sec {
		c.Fail(fmt.Errorf("checkpoint: %d unread bytes before section %q", c.sec-c.pos, name))
		return
	}
	c.sec = -1
	hdr, err := readSectionHeader(c.buf, &c.pos)
	switch {
	case err != nil:
		c.Fail(err)
	case hdr.Name != name:
		c.Fail(fmt.Errorf("checkpoint: section %q, want %q", hdr.Name, name))
	default:
		c.sec, c.name = c.pos+hdr.Len, name
	}
}

// closeSection backpatches the open section's payload length.
func (c *Codec) closeSection() {
	if c.sec < 0 {
		return
	}
	binary.LittleEndian.PutUint32(c.buf[c.sec:], uint32(len(c.buf)-(c.sec+4)))
	c.sec = -1
}

// finish verifies that the open section was fully consumed and that no
// sections remain, completing a strict decode of the whole image.
func (c *Codec) finish() error {
	if c.err != nil {
		return c.err
	}
	if c.sec >= 0 && c.pos != c.sec {
		return fmt.Errorf("checkpoint: %d unread bytes at end of final section", c.sec-c.pos)
	}
	if c.pos != len(c.buf) {
		return fmt.Errorf("checkpoint: %d trailing unread bytes", len(c.buf)-c.pos)
	}
	return nil
}

// The primitives below branch on the direction once and then put or take
// the value's bytes in place: for a warm L2 they run hundreds of thousands
// of times per image.

// put extends the encoded image by n bytes and returns them for the
// caller to fill. The in-place path must not allocate; growth is split
// into the grow slow path.
func (c *Codec) put(n int) []byte {
	if len(c.buf)+n > cap(c.buf) {
		c.grow(n)
	}
	c.buf = c.buf[:len(c.buf)+n]
	return c.buf[len(c.buf)-n:]
}

// grow reallocates the encode buffer with room for at least n more bytes.
//
// Doubling is amortised O(1): it runs once per buffer exhaustion, not
// per encoded value. A large Span doubles the capacity as many times as
// it needs at once, so the buffer stays on the doubling schedule.
func (c *Codec) grow(n int) {
	size := 2 * cap(c.buf)
	for size < len(c.buf)+n {
		size *= 2
	}
	buf := make([]byte, len(c.buf), size)
	copy(buf, c.buf)
	c.buf = buf
}

// take returns the next n payload bytes of the open section, or nil once
// decoding has failed (Fail closes the section, so one bounds check
// covers both).
func (c *Codec) take(n int) []byte {
	if c.sec-c.pos < n {
		return c.takeFailed(n)
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos]
}

// takeFailed records why take could not serve n bytes, unless decoding
// has already failed, and returns nil.
func (c *Codec) takeFailed(n int) []byte {
	switch {
	case c.err != nil:
	case c.sec < 0:
		c.Fail(errors.New("checkpoint: read outside any section"))
	default:
		c.Fail(fmt.Errorf("%w: section %q underrun (want %d bytes, %d left)", ErrCorrupt, c.name, n, c.sec-c.pos))
	}
	return nil
}

// U8 encodes or decodes one byte.
func (c *Codec) U8(p *uint8) {
	if !c.decoding {
		c.put(1)[0] = *p
	} else if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// Bool encodes a bool as one byte, 0 or 1; decoding any other value is
// corrupt.
func (c *Codec) Bool(p *bool) {
	if !c.decoding {
		var v byte
		if *p {
			v = 1
		}
		c.put(1)[0] = v
		return
	}
	b := c.take(1)
	switch {
	case b == nil:
	case b[0] > 1:
		c.Fail(fmt.Errorf("%w: section %q: invalid bool encoding %d", ErrCorrupt, c.name, b[0]))
	default:
		*p = b[0] == 1
	}
}

// U32 encodes or decodes a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.decoding {
		binary.LittleEndian.PutUint32(c.put(4), *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 encodes or decodes a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.decoding {
		binary.LittleEndian.PutUint64(c.put(8), *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 encodes or decodes an int64 as its two's-complement uint64 image.
func (c *Codec) I64(p *int64) {
	if !c.decoding {
		binary.LittleEndian.PutUint64(c.put(8), uint64(*p))
	} else if b := c.take(8); b != nil {
		*p = int64(binary.LittleEndian.Uint64(b))
	}
}

// Int encodes or decodes an int as an int64.
func (c *Codec) Int(p *int) {
	if !c.decoding {
		binary.LittleEndian.PutUint64(c.put(8), uint64(*p))
	} else if b := c.take(8); b != nil {
		*p = int(binary.LittleEndian.Uint64(b))
	}
}

// F64 encodes or decodes a float64 as its IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	if !c.decoding {
		binary.LittleEndian.PutUint64(c.put(8), math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// String encodes or decodes a u32-length-prefixed string.
func (c *Codec) String(p *string) {
	n := c.Count(len(*p), math.MaxInt)
	if !c.decoding {
		copy(c.put(len(*p)), *p)
	} else if b := c.take(n); b != nil {
		*p = string(b)
	}
}

// Len encodes n, the length of a table the receiver's configuration fixes,
// as a u32. Decoding requires the stored length to equal n: another
// length means the image belongs to a differently-configured component.
func (c *Codec) Len(n int) {
	v := uint32(n)
	c.U32(&v)
	if c.decoding && c.err == nil && int(v) != n {
		c.Fail(fmt.Errorf("checkpoint: section %q: table length %d, want %d", c.name, v, n))
	}
}

// Count encodes n, the length of a variable-length run, as a u32 and
// returns it; decoding returns the stored count instead. A stored count
// above limit, or above the bytes left in the section (every element
// takes at least one), is corrupt and decodes as 0, which bounds
// allocation on hostile input.
func (c *Codec) Count(n, limit int) int {
	v := uint32(n)
	c.U32(&v)
	switch {
	case !c.decoding:
		return n
	case c.err != nil:
		return 0
	case int(v) > limit || int(v) > c.sec-c.pos:
		c.Fail(fmt.Errorf("%w: section %q: count %d exceeds %d or the %d bytes left",
			ErrCorrupt, c.name, v, limit, c.sec-c.pos))
		return 0
	}
	return int(v)
}

// Span puts n bytes into the encoded image, or takes the next n payload
// bytes of the open section, and returns them in place: an encoder fills
// them, a decoder reads them. A run of fixed-size records is coded
// through one Span rather than one primitive call per field. Decoding
// returns nil once it has failed, and a Span that would overrun the
// section fails it.
func (c *Codec) Span(n int) []byte {
	if !c.decoding {
		return c.put(n)
	}
	return c.take(n)
}

// Bytes encodes or decodes a u32-length-prefixed []byte of exactly len(s)
// elements (see Len).
func (c *Codec) Bytes(s []byte) {
	c.Len(len(s))
	if b := c.Span(len(s)); !c.decoding {
		copy(b, s)
	} else if b != nil {
		copy(s, b)
	}
}

// U64s encodes or decodes a u32-length-prefixed []uint64 of exactly
// len(s) elements (see Len).
func (c *Codec) U64s(s []uint64) { words(c, s) }

// I64s encodes or decodes a u32-length-prefixed []int64 of exactly len(s)
// elements (see Len).
func (c *Codec) I64s(s []int64) { words(c, s) }

// Ints encodes or decodes a u32-length-prefixed []int, each element as an
// int64, of exactly len(s) elements (see Len).
func (c *Codec) Ints(s []int) { words(c, s) }

// words codes s as its length (see Len) and one Span of little-endian
// 8-byte words, each element's two's-complement image.
func words[T ~int | ~int64 | ~uint64](c *Codec, s []T) {
	c.Len(len(s))
	b := c.Span(8 * len(s))
	switch {
	case !c.decoding:
		for i, v := range s {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	case b != nil:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// F64s encodes or decodes a u32-length-prefixed []float64 of exactly
// len(s) elements (see Len), each as its IEEE-754 bit pattern.
func (c *Codec) F64s(s []float64) {
	c.Len(len(s))
	b := c.Span(8 * len(s))
	switch {
	case !c.decoding:
		for i, v := range s {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	case b != nil:
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
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

// Sections validates data like Decode and walks the section framing,
// returning every section's name and payload length in order.
func Sections(data []byte) ([]SectionInfo, error) {
	c, err := newDecoder(data)
	if err != nil {
		return nil, err
	}
	var out []SectionInfo
	for c.pos < len(c.buf) {
		hdr, err := readSectionHeader(c.buf, &c.pos)
		if err != nil {
			return nil, err
		}
		c.pos += hdr.Len
		out = append(out, hdr)
	}
	return out, nil
}

// readSectionHeader parses the section header at buf[*pos:], advancing
// *pos to the payload, and checks that the payload fits in buf.
func readSectionHeader(buf []byte, pos *int) (SectionInfo, error) {
	p := *pos
	if len(buf)-p < 2 {
		return SectionInfo{}, fmt.Errorf("%w: truncated section header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(buf[p:]))
	p += 2
	if len(buf)-p < n {
		return SectionInfo{}, fmt.Errorf("%w: truncated section name (want %d bytes)", ErrCorrupt, n)
	}
	name := string(buf[p : p+n])
	p += n
	if len(buf)-p < 4 {
		return SectionInfo{}, fmt.Errorf("%w: truncated section %q length", ErrCorrupt, name)
	}
	plen := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if len(buf)-p < plen {
		return SectionInfo{}, fmt.Errorf("%w: section %q payload %d bytes, only %d remain", ErrCorrupt, name, plen, len(buf)-p)
	}
	*pos = p
	return SectionInfo{Name: name, Len: plen}, nil
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
