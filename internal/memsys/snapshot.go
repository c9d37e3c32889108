package memsys

import (
	"fmt"

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

// sections lists the hierarchy's subcomponents in checkpoint order, for
// Save and Restore alike. The optional prefetch bus, L2 prefetcher and
// dead-block predictor are listed when the matching flag is set: the
// machine's own presence when saving, the decoded presence flags when
// restoring.
func (m *MemSys) sections(pfBus, l2pf, dbp bool) []checkpoint.Snapshotter {
	s := []checkpoint.Snapshotter{m.l1d, m.l2, m.mshr, m.l1Bus}
	if pfBus {
		s = append(s, m.pfBus)
	}
	s = append(s, m.memBus, m.mem, m.pf)
	if l2pf {
		s = append(s, m.l2pf)
	}
	if dbp {
		s = append(s, m.dbp)
	}
	return s
}

// Save implements checkpoint.Snapshotter: the hierarchy counters and
// presence flags for the optional components, then one section per
// subcomponent (caches, MSHRs, buses, DRAM, prefetchers, dead-block
// predictor). The presence flags let Restore validate that the checkpoint
// and the receiving machine were built with the same topology.
func (m *MemSys) Save(w *checkpoint.Writer) {
	hasPfBus, hasL2pf, hasDbp := m.pfBus != nil, m.l2pf != nil, m.dbp != nil
	w.Section("memsys")
	w.Bool(hasPfBus)
	w.Bool(hasL2pf)
	w.Bool(hasDbp)
	for _, f := range m.st.own() {
		w.U64(*f)
	}
	for _, c := range m.sections(hasPfBus, hasL2pf, hasDbp) {
		c.Save(w)
	}
}

// Restore implements checkpoint.Snapshotter and publishes the restored
// counters. The machine must have been built with the same cache
// geometries and at least the optional components present in the
// checkpoint; an optional component present on the machine but absent from
// the checkpoint keeps its fresh zero state (this is how a baseline-warmed
// checkpoint forks into a machine with extra structures).
func (m *MemSys) Restore(r *checkpoint.Reader) error {
	if err := r.Section("memsys"); err != nil {
		return err
	}
	hasPfBus, hasL2pf, hasDbp := r.Bool(), r.Bool(), r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if hasPfBus && m.pfBus == nil {
		return fmt.Errorf("memsys: checkpoint has a prefetch bus, machine does not")
	}
	if hasL2pf && m.l2pf == nil {
		return fmt.Errorf("memsys: checkpoint has an L2 prefetcher, machine does not")
	}
	if hasDbp && m.dbp == nil {
		return fmt.Errorf("memsys: checkpoint has a dead-block predictor, machine does not")
	}
	for _, f := range m.st.own() {
		*f = r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	for _, c := range m.sections(hasPfBus, hasL2pf, hasDbp) {
		if err := c.Restore(r); err != nil {
			return err
		}
	}
	m.PublishCounters()
	return nil
}
