// Package addr provides address arithmetic for cache geometries.
//
// A cache geometry splits a byte address into block offset, set index and
// tag, exactly as described in Section 3 of the TCP paper: for the paper's
// 32 KB direct-mapped L1 with 32-byte blocks there are 1024 sets, so every
// aligned 32 KB region of the address space shares a single tag.
package addr

import "fmt"

// Addr is a byte address in the simulated machine.
type Addr uint64

// Geometry describes how a cache decomposes addresses.
// The zero value is not usable; construct with NewGeometry.
type Geometry struct {
	sets       uint32
	ways       int
	blockBytes int

	blockShift uint
	indexBits  uint
	indexMask  uint64
}

// NewGeometry returns a geometry for a cache of the given total size in
// bytes, associativity, and block size in bytes. Size, ways and blockBytes
// must be powers of two with size >= ways*blockBytes.
func NewGeometry(sizeBytes, ways, blockBytes int) (Geometry, error) {
	switch {
	case sizeBytes <= 0 || ways <= 0 || blockBytes <= 0:
		return Geometry{}, fmt.Errorf("addr: non-positive geometry %d/%d/%d", sizeBytes, ways, blockBytes)
	case !isPow2(sizeBytes) || !isPow2(ways) || !isPow2(blockBytes):
		return Geometry{}, fmt.Errorf("addr: geometry %d/%d/%d not powers of two", sizeBytes, ways, blockBytes)
	case sizeBytes < ways*blockBytes:
		return Geometry{}, fmt.Errorf("addr: size %dB < %d ways x %dB blocks", sizeBytes, ways, blockBytes)
	}
	sets := sizeBytes / (ways * blockBytes)
	g := Geometry{
		sets:       uint32(sets),
		ways:       ways,
		blockBytes: blockBytes,
		blockShift: log2(blockBytes),
		indexBits:  log2(sets),
		indexMask:  uint64(sets - 1),
	}
	return g, nil
}

// MustGeometry is NewGeometry but panics on error; for configuration tables.
func MustGeometry(sizeBytes, ways, blockBytes int) Geometry {
	g, err := NewGeometry(sizeBytes, ways, blockBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// Sets returns the number of sets.
func (g Geometry) Sets() int { return int(g.sets) }

// Ways returns the associativity.
func (g Geometry) Ways() int { return g.ways }

// BlockBytes returns the cache block size in bytes.
func (g Geometry) BlockBytes() int { return g.blockBytes }

// SizeBytes returns the total capacity in bytes.
func (g Geometry) SizeBytes() int { return int(g.sets) * g.ways * g.blockBytes }

// IndexBits returns the number of set-index bits.
func (g Geometry) IndexBits() uint { return g.indexBits }

// IndexMask returns the mask that selects the set index from a block ID.
func (g Geometry) IndexMask() uint64 { return g.indexMask }

// BlockShift returns log2(block size).
func (g Geometry) BlockShift() uint { return g.blockShift }

// Index extracts the set index of a.
func (g Geometry) Index(a Addr) uint32 {
	return uint32((uint64(a) >> g.blockShift) & g.indexMask)
}

// Tag extracts the tag of a.
func (g Geometry) Tag(a Addr) uint64 {
	return uint64(a) >> (g.blockShift + g.indexBits)
}

// Block returns the block-aligned address containing a.
func (g Geometry) Block(a Addr) Addr {
	return a &^ Addr(g.blockBytes-1)
}

// BlockID returns a dense identifier for the block containing a
// (the address shifted down by the block offset).
func (g Geometry) BlockID(a Addr) uint64 {
	return uint64(a) >> g.blockShift
}

// Compose reconstructs a block-aligned address from a tag and set index.
// This is the operation TCP performs when it turns a predicted tag plus the
// current miss index back into a prefetch address (Section 4, lookup step 3).
func (g Geometry) Compose(tag uint64, index uint32) Addr {
	return Addr((tag<<(g.indexBits))|uint64(index&uint32(g.indexMask))) << g.blockShift
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
