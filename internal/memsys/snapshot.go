package memsys

import (
	"errors"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/prefetch"
)

// UsePrefetcher replaces the L1-side prefetcher. The warm-fork machinery
// uses this to attach the grid config's prefetcher at the warmup/measure
// boundary after restoring a baseline-warmed checkpoint.
func (m *MemSys) UsePrefetcher(p prefetch.Prefetcher) {
	if p == nil {
		p = prefetch.None{}
	}
	m.setPrefetchers(p, m.l2pf)
}

// sections lists the hierarchy's subcomponents in checkpoint order. The
// optional prefetch bus, L2 prefetcher and dead-block predictor are listed
// when the matching presence flag of the image is set.
func (m *MemSys) sections(pfBus, l2pf, dbp bool) []checkpoint.Snapshotter {
	s := []checkpoint.Snapshotter{m.l1d, m.l2, m.mshr, m.l1Bus}
	if pfBus {
		s = append(s, m.pfBus)
	}
	s = append(s, m.memBus, m.pf)
	if l2pf {
		s = append(s, m.l2pf)
	}
	if dbp {
		s = append(s, m.dbp)
	}
	return s
}

// Snapshot implements checkpoint.Snapshotter: the hierarchy counters and
// presence flags for the optional components, then one section per
// subcomponent (caches, MSHRs, buses, prefetchers, dead-block
// predictor). The flags let decoding check that the image and the
// receiving machine were built with the same topology: the machine must
// have the same cache geometries and at least the optional components the
// image has. An optional component the machine has and the image lacks
// keeps its fresh zero state (this is how a baseline-warmed checkpoint
// forks into a machine with extra structures). Decoding publishes the
// restored counters.
func (m *MemSys) Snapshot(c *checkpoint.Codec) {
	c.Section("memsys")
	hasPfBus, hasL2pf, hasDbp := m.pfBus != nil, m.l2pf != nil, m.dbp != nil
	c.Bool(&hasPfBus)
	c.Bool(&hasL2pf)
	c.Bool(&hasDbp)
	switch {
	case hasPfBus && m.pfBus == nil:
		c.Fail(errors.New("memsys: checkpoint has a prefetch bus, machine does not"))
	case hasL2pf && m.l2pf == nil:
		c.Fail(errors.New("memsys: checkpoint has an L2 prefetcher, machine does not"))
	case hasDbp && m.dbp == nil:
		c.Fail(errors.New("memsys: checkpoint has a dead-block predictor, machine does not"))
	}
	if c.Err() != nil {
		return
	}
	for _, f := range m.st.own() {
		c.U64(f)
	}
	for _, s := range m.sections(hasPfBus, hasL2pf, hasDbp) {
		s.Snapshot(c)
	}
	if c.Decoding() {
		m.PublishCounters()
	}
}
