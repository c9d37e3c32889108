package telemetry

import (
	"fmt"
	"math"
	"slices"

	"tagprefetch/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter for the sampler: the
// next-sample cycle, per-probe ratio baselines, all recorded samples, and
// the phase boundaries. Probe registration (names and value functions) is
// structural — the decoding run re-registers the same probes, in the same
// order — so only names are stored, for validation.
func (s *Sampler) Snapshot(c *checkpoint.Codec) {
	c.Section("telemetry.sampler")
	c.I64(&s.next)
	c.U64(&s.truncated)
	c.Len(len(s.probes))
	for i := range s.probes {
		p := &s.probes[i]
		name := p.name
		c.String(&name)
		if name != p.name {
			c.Fail(fmt.Errorf("sampler: checkpoint probe %q, want %q", name, p.name))
		}
		c.F64(&p.prevNum)
		c.F64(&p.prevDen)
	}
	// Every series has one entry per sample: the cycle series' count sizes
	// the others, whose own length prefixes must then agree with it.
	n := c.Count(len(s.cycles), s.maxSample)
	s.cycles = slices.Grow(s.cycles[:0], n)[:n]
	for i := range s.cycles {
		c.I64(&s.cycles[i])
	}
	s.instrs = slices.Grow(s.instrs[:0], n)[:n]
	c.U64s(s.instrs)
	for i := range s.probes {
		s.values[i] = slices.Grow(s.values[i][:0], n)[:n]
		c.F64s(s.values[i])
	}
	m := c.Count(len(s.phases), math.MaxInt)
	s.phases = slices.Grow(s.phases[:0], m)[:m]
	for i := range s.phases {
		ph := &s.phases[i]
		c.String(&ph.Name)
		c.I64(&ph.Cycle)
		c.U64(&ph.Instructions)
	}
}
