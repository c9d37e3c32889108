// Package branch implements two-level adaptive branch predictors in the
// Yeh/Patt taxonomy (GAg, GAs/gshare, PAg) plus a bimodal predictor and a
// McFarling-style combining predictor.
//
// The paper draws an explicit structural parallel between TCP's THT/PHT
// pair and two-level branch predictors (Section 4: "This structure closely
// resembles the well-known two-level branch predictors [22]"), so this
// substrate serves two purposes: it supplies the simulated core's fetch
// redirect model, and it lets the ablation benches compare TCP's indexing
// options against their branch-prediction ancestors.
package branch

import (
	"fmt"
	"strings"

	"tagprefetch/internal/checkpoint"
)

// Predictor predicts conditional branch outcomes and learns from the
// resolved direction. Predictors are embedded CPU state, so every one is
// checkpointable (snapshot.go).
type Predictor interface {
	checkpoint.Snapshotter
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// Name identifies the scheme.
	Name() string
}

// Default names the core's predictor when cpu.Config.Predictor is empty: a
// 12-bit gshare with 8 bits of global history.
const Default = "gshare"

// Predictors is the one table of named predictors a configuration selects
// by name: ablation A9's rows, in its order and with its parameters.
// Predictors are stateful, so Build returns a fresh instance per call.
var Predictors = []struct {
	Name  string
	Build func() Predictor
}{
	{"always-taken", func() Predictor { return Static{Taken: true} }},
	{"bimodal", func() Predictor { return NewBimodal(12) }},
	{Default, func() Predictor { return NewGShare(12, 8) }},
	{"PAg", func() Predictor { return NewPAg(10, 8, 12) }},
	{"combining", func() Predictor { return NewCombining(NewBimodal(12), NewGShare(12, 8), 10) }},
}

// New builds the named predictor; "" selects Default. An unknown name
// returns an error listing the table.
func New(name string) (Predictor, error) {
	if name == "" {
		name = Default
	}
	names := make([]string, len(Predictors))
	for i, p := range Predictors {
		if p.Name == name {
			return p.Build(), nil
		}
		names[i] = p.Name
	}
	return nil, fmt.Errorf("unknown branch predictor %q (want %s)", name, strings.Join(names, " | "))
}

// counter is a 2-bit saturating counter; taken when >= 2.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Bimodal is a PC-indexed table of 2-bit counters.
type Bimodal struct {
	table []counter
	mask  uint64 // geometry derived from the table size at construction; decoding keeps the constructor's value
}

// NewBimodal creates a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	n := 1 << bits
	t := make([]counter, n)
	for i := range t {
		t[i] = 2 // weakly taken: loops predict well immediately
	}
	return &Bimodal{table: t, mask: uint64(n - 1)}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table[(pc>>2)&b.mask].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := (pc >> 2) & b.mask
	b.table[i] = b.table[i].update(taken)
}

// GShare is a global-history predictor whose PHT is indexed by
// PC xor global-history — the branch-prediction analogue of TCP-8K's fully
// shared PHT (history from every branch shares one pattern table).
type GShare struct {
	table   []counter
	mask    uint64 // geometry derived from the table size at construction
	history uint64
	histLen uint // geometry fixed at construction; decoding masks the history with it
}

// NewGShare creates a gshare predictor with 2^bits counters and a
// histLen-bit global history register.
func NewGShare(bits, histLen uint) *GShare {
	n := 1 << bits
	t := make([]counter, n)
	for i := range t {
		t[i] = 2
	}
	return &GShare{table: t, mask: uint64(n - 1), histLen: histLen}
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) index(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	g.history = (g.history << 1) & ((1 << g.histLen) - 1)
	if taken {
		g.history |= 1
	}
}

// PAg is a per-address-history, global-pattern-table predictor: each branch
// has a private history register, but all histories share one PHT — the
// branch-prediction analogue of TCP's per-set THT feeding a shared PHT.
type PAg struct {
	histories []uint64
	hmask     uint64 // geometry derived from the history-table size at construction
	table     []counter
	pmask     uint64 // geometry derived from the PHT size at construction
	histLen   uint   // geometry fixed at construction, not dynamic state
}

// NewPAg creates a PAg predictor with 2^histTableBits history registers of
// histLen bits, and 2^phtBits shared pattern counters.
func NewPAg(histTableBits, histLen, phtBits uint) *PAg {
	nh := 1 << histTableBits
	np := 1 << phtBits
	t := make([]counter, np)
	for i := range t {
		t[i] = 2
	}
	return &PAg{
		histories: make([]uint64, nh),
		hmask:     uint64(nh - 1),
		table:     t,
		pmask:     uint64(np - 1),
		histLen:   histLen,
	}
}

// Name implements Predictor.
func (p *PAg) Name() string { return "PAg" }

// Predict implements Predictor.
func (p *PAg) Predict(pc uint64) bool {
	h := p.histories[(pc>>2)&p.hmask]
	return p.table[h&p.pmask].taken()
}

// Update implements Predictor.
func (p *PAg) Update(pc uint64, taken bool) {
	hi := (pc >> 2) & p.hmask
	h := p.histories[hi]
	pi := h & p.pmask
	p.table[pi] = p.table[pi].update(taken)
	h = (h << 1) & ((1 << p.histLen) - 1)
	if taken {
		h |= 1
	}
	p.histories[hi] = h
}

// Combining selects between two component predictors with a chooser table
// of 2-bit counters (McFarling).
type Combining struct {
	a, b    Predictor
	chooser []counter
	mask    uint64 // geometry derived from the chooser size at construction
}

// NewCombining builds a combining predictor over a and b with 2^bits
// chooser entries. The chooser counter's "taken" sense means "use b".
func NewCombining(a, b Predictor, bits uint) *Combining {
	n := 1 << bits
	return &Combining{a: a, b: b, chooser: make([]counter, n), mask: uint64(n - 1)}
}

// Name implements Predictor.
func (c *Combining) Name() string { return "combining(" + c.a.Name() + "," + c.b.Name() + ")" }

// Predict implements Predictor.
func (c *Combining) Predict(pc uint64) bool {
	if c.chooser[(pc>>2)&c.mask].taken() {
		return c.b.Predict(pc)
	}
	return c.a.Predict(pc)
}

// Update implements Predictor.
func (c *Combining) Update(pc uint64, taken bool) {
	pa := c.a.Predict(pc)
	pb := c.b.Predict(pc)
	i := (pc >> 2) & c.mask
	if pa != pb {
		c.chooser[i] = c.chooser[i].update(pb == taken)
	}
	c.a.Update(pc, taken)
	c.b.Update(pc, taken)
}

// Static always predicts the same direction; the degenerate baseline.
type Static struct {
	// The fixed direction is configuration chosen at construction, not dynamic state.
	Taken bool
}

// Name implements Predictor.
func (s Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Predict implements Predictor.
func (s Static) Predict(uint64) bool { return s.Taken }

// Update implements Predictor.
func (s Static) Update(uint64, bool) {}
