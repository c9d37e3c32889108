// Package a exercises snapshot-coverage checking for Snapshotter
// implementations: every struct field must be referenced by Save and by
// Restore (through same-package helpers), or carry //tcp:nosnap <why>.
package a

import "tagprefetch/internal/checkpoint"

// Good is fully covered, partly through a helper.
type Good struct {
	tick uint64
	hits int64
	name string
}

func (g *Good) Save(w *checkpoint.Writer) {
	w.U64(g.tick)
	g.saveStats(w)
}

// saveStats is reached from Save, so the fields it writes count.
func (g *Good) saveStats(w *checkpoint.Writer) {
	w.I64(g.hits)
	w.String(g.name)
}

func (g *Good) Restore(r *checkpoint.Reader) error {
	g.tick = r.U64()
	g.hits = r.I64()
	g.name = r.String()
	return r.Err()
}

// Mutated mirrors a real Save with one field write deleted: Restore still
// reads epoch, so the decoder consumes bytes Save never produced.
type Mutated struct {
	tick  uint64
	epoch uint64 // want `field Mutated\.epoch is read by \(\*Mutated\)\.Restore but never written by Save; the decoder will consume other fields' bytes`
}

func (m *Mutated) Save(w *checkpoint.Writer) {
	w.U64(m.tick)
}

func (m *Mutated) Restore(r *checkpoint.Reader) error {
	m.tick = r.U64()
	m.epoch = r.U64()
	return r.Err()
}

// Holes has the full bug taxonomy in one struct.
type Holes struct {
	kept    uint64
	lost    uint64 // want `field Holes\.lost is not serialised: \(\*Holes\)\.Save never writes it and Restore never reads it; encode it in both or annotate //tcp:nosnap <why>`
	oneway  uint64 // want `field Holes\.oneway is written by \(\*Holes\)\.Save but never read back by Restore; restored runs diverge from the saved machine`
	scratch []int  // want `field Holes\.scratch is not serialised`

	//tcp:nosnap derived from kept on first access after restore
	cache map[uint64]int

	//tcp:nosnap
	why uint64 // want `//tcp:nosnap needs a justification: say why Holes\.why need not survive a checkpoint`

	//tcp:nosnap kept for debugging
	loud uint64 // want `stale //tcp:nosnap on Holes\.loud: Save and Restore both reference the field, so the annotation excuses nothing; drop it`

	//lint:ignore tcplint/snapfield rebuilt by the warmup pass before the first simulated cycle
	waived uint64
}

func (h *Holes) Save(w *checkpoint.Writer) {
	w.U64(h.kept)
	w.U64(h.oneway)
	w.U64(h.loud)
}

func (h *Holes) Restore(r *checkpoint.Reader) error {
	h.kept = r.U64()
	h.loud = r.U64()
	return r.Err()
}

// ByMethod reaches its encoder through a method call. The selection b.put
// has index 1 (put is ByMethod's second declared method), which must not
// be read as field 1: lost stays unserialised.
type ByMethod struct {
	tick uint64
	lost uint64 // want `field ByMethod\.lost is not serialised`
}

func (b *ByMethod) Save(w *checkpoint.Writer) {
	b.put(w)
}

func (b *ByMethod) put(w *checkpoint.Writer) { w.U64(b.tick) }

func (b *ByMethod) Restore(r *checkpoint.Reader) error {
	b.tick = r.U64()
	return r.Err()
}

// Inner is a complete Snapshotter used as an embedded implementer below.
type Inner struct {
	base uint64
}

func (in *Inner) Save(w *checkpoint.Writer) {
	w.U64(in.base)
}

func (in *Inner) Restore(r *checkpoint.Reader) error {
	in.base = r.U64()
	return r.Err()
}

// Outer satisfies Snapshotter only through the promoted methods of Inner,
// which cannot see extra: the classic "embedded implementer hides a new
// field" hole.
type Outer struct {
	Inner
	extra uint64 // want `field Outer\.extra is not serialised`
}

// NotASnapshotter has Save but no Restore, so it is out of scope.
type NotASnapshotter struct {
	junk uint64
}

func (n *NotASnapshotter) Save(w *checkpoint.Writer) {}

// OldShape's Save returns an error, which checkpoint.Snapshotter's Save
// does not, so it is not a Snapshotter and is out of scope.
type OldShape struct {
	junk uint64
}

func (o *OldShape) Save(w *checkpoint.Writer) error { return nil }

func (o *OldShape) Restore(r *checkpoint.Reader) error { return r.Err() }

// BareReturn ends Save with a bare return, which the Save-side fix inserts
// before.
type BareReturn struct {
	tick uint64
	lost uint64 // want `field BareReturn\.lost is not serialised`
}

func (b *BareReturn) Save(w *checkpoint.Writer) {
	w.U64(b.tick)
	return
}

func (b *BareReturn) Restore(r *checkpoint.Reader) error {
	b.tick = r.U64()
	return r.Err()
}

// ValueSave implements Save on the value receiver, which the pointer's
// method set includes.
type ValueSave struct {
	tick uint64
	lost uint64 // want `field ValueSave\.lost is read by \(\*ValueSave\)\.Restore but never written by Save`
}

func (v ValueSave) Save(w *checkpoint.Writer) { w.U64(v.tick) }

func (v *ValueSave) Restore(r *checkpoint.Reader) error {
	v.tick = r.U64()
	v.lost = r.U64()
	return r.Err()
}
