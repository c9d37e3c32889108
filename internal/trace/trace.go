// Package trace defines the memory-reference event types exchanged between
// the simulated core, the memory hierarchy, the prefetchers and the
// profiler, plus a compact binary on-disk format so miss traces can be
// captured once and re-analysed offline (the methodology of Section 3 of
// the paper, which profiles L1 data-cache miss address streams).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"tagprefetch/internal/addr"
)

// Miss is one L1 data-cache miss as observed by a prefetcher sitting
// between L1 and L2 (Figure 10 of the paper). Index and Tag are the miss
// index and miss tag under the L1 geometry; PC is the address of the
// load/store that missed (needed only by PC-based prefetchers like DBCP).
type Miss struct {
	Addr  addr.Addr
	PC    addr.Addr
	Index uint32
	Tag   uint64
	Cycle int64
	Write bool
}

// MakeMiss builds a Miss for address a under geometry g.
func MakeMiss(g addr.Geometry, a, pc addr.Addr, cycle int64, write bool) Miss {
	return Miss{
		Addr:  g.Block(a),
		PC:    pc,
		Index: g.Index(a),
		Tag:   g.Tag(a),
		Cycle: cycle,
		Write: write,
	}
}

const magic = uint32(0x54435031) // "TCP1"

// Writer streams Miss records to an io.Writer in a compact binary format.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	begun bool
}

// NewWriter creates a trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one miss record.
func (tw *Writer) Write(m Miss) error {
	if !tw.begun {
		if err := binary.Write(tw.w, binary.LittleEndian, magic); err != nil {
			return err
		}
		tw.begun = true
	}
	var buf [8 * 4]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(m.Addr))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.PC))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.Cycle))
	flags := uint64(0)
	if m.Write {
		flags = 1
	}
	binary.LittleEndian.PutUint64(buf[24:], flags)
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Flush flushes buffered records. Writing the header even for empty traces.
func (tw *Writer) Flush() error {
	if !tw.begun {
		if err := binary.Write(tw.w, binary.LittleEndian, magic); err != nil {
			return err
		}
		tw.begun = true
	}
	return tw.w.Flush()
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.n }

// Reader reads Miss records written by Writer. Index/Tag fields are
// recomputed under the supplied L1 geometry.
type Reader struct {
	r    *bufio.Reader
	g    addr.Geometry
	init bool
}

// NewReader creates a trace reader decoding under geometry g.
func NewReader(r io.Reader, g addr.Geometry) *Reader {
	return &Reader{r: bufio.NewReader(r), g: g}
}

// Read returns the next record, or io.EOF at end of trace.
func (tr *Reader) Read() (Miss, error) {
	if !tr.init {
		var m uint32
		if err := binary.Read(tr.r, binary.LittleEndian, &m); err != nil {
			return Miss{}, fmt.Errorf("trace: reading header: %w", err)
		}
		if m != magic {
			return Miss{}, errors.New("trace: bad magic")
		}
		tr.init = true
	}
	var buf [8 * 4]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Miss{}, err
	}
	a := addr.Addr(binary.LittleEndian.Uint64(buf[0:]))
	pc := addr.Addr(binary.LittleEndian.Uint64(buf[8:]))
	cyc := int64(binary.LittleEndian.Uint64(buf[16:]))
	write := binary.LittleEndian.Uint64(buf[24:])&1 != 0
	return MakeMiss(tr.g, a, pc, cyc, write), nil
}
