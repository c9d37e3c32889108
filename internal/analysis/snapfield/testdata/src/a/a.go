// Package a exercises snapshot-coverage checking for Snapshotter
// implementations: every struct field must be coded by Snapshot (through
// same-package helpers), or carry //tcp:nosnap <why>.
package a

import "tagprefetch/internal/checkpoint"

// Good is fully covered, partly through a helper.
type Good struct {
	tick uint64
	hits int64
	name string
}

func (g *Good) Snapshot(c *checkpoint.Codec) {
	c.U64(&g.tick)
	g.snapshotStats(c)
}

// snapshotStats is reached from Snapshot, so the fields it codes count.
func (g *Good) snapshotStats(c *checkpoint.Codec) {
	c.I64(&g.hits)
	c.String(&g.name)
}

// Mutated mirrors a real Snapshot with one coded field deleted.
type Mutated struct {
	tick  uint64
	epoch uint64 // want `field Mutated\.epoch is not serialised: \(\*Mutated\)\.Snapshot never codes it; encode it or annotate //tcp:nosnap <why>`
}

func (m *Mutated) Snapshot(c *checkpoint.Codec) {
	c.U64(&m.tick)
}

// Holes has the full bug taxonomy in one struct.
type Holes struct {
	kept    uint64
	lost    uint64 // want `field Holes\.lost is not serialised`
	scratch []int  // want `field Holes\.scratch is not serialised`

	//tcp:nosnap derived from kept on first access after restore
	cache map[uint64]int

	//tcp:nosnap
	why uint64 // want `//tcp:nosnap needs a justification: say why Holes\.why need not survive a checkpoint`

	//tcp:nosnap kept for debugging
	loud uint64 // want `stale //tcp:nosnap on Holes\.loud: Snapshot references the field, so the annotation excuses nothing; drop it`

	//lint:ignore tcplint/snapfield rebuilt by the warmup pass before the first simulated cycle
	waived uint64
}

func (h *Holes) Snapshot(c *checkpoint.Codec) {
	c.U64(&h.kept)
	c.U64(&h.loud)
}

// ByMethod reaches its codec through a method call. The selection b.put
// has index 1 (put is ByMethod's second declared method), which must not
// be read as field 1: lost stays unserialised.
type ByMethod struct {
	tick uint64
	lost uint64 // want `field ByMethod\.lost is not serialised`
}

func (b *ByMethod) Snapshot(c *checkpoint.Codec) {
	b.put(c)
}

func (b *ByMethod) put(c *checkpoint.Codec) { c.U64(&b.tick) }

// Inner is a complete Snapshotter used as an embedded implementer below.
type Inner struct {
	base uint64
}

func (in *Inner) Snapshot(c *checkpoint.Codec) {
	c.U64(&in.base)
}

// Outer satisfies Snapshotter only through the promoted method of Inner,
// which cannot see extra: the classic "embedded implementer hides a new
// field" hole.
type Outer struct {
	Inner
	extra uint64 // want `field Outer\.extra is not serialised`
}

// OldShape has the retired Save/Restore pair but no Snapshot, so it is
// not a Snapshotter and is out of scope.
type OldShape struct {
	junk uint64
}

func (o *OldShape) Save(c *checkpoint.Codec) {}

func (o *OldShape) Restore(c *checkpoint.Codec) error { return nil }

// BareReturn ends Snapshot with a bare return, which the fix inserts
// before.
type BareReturn struct {
	tick uint64
	lost uint64 // want `field BareReturn\.lost is not serialised`
}

func (b *BareReturn) Snapshot(c *checkpoint.Codec) {
	c.U64(&b.tick)
	return
}

// Validated references cfg only to check a decoded length against it,
// which counts as coverage: the field shapes the layout.
type Validated struct {
	cfg     int
	entries []uint64
}

func (v *Validated) Snapshot(c *checkpoint.Codec) {
	c.Len(v.cfg)
	c.U64s(v.entries)
}
