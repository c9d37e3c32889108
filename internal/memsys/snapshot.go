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

// snapshotter asserts that a prefetcher can be checkpointed.
func snapshotter(p prefetch.Prefetcher) (checkpoint.Snapshotter, error) {
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("memsys: prefetcher %s is not checkpointable", p.Name())
	}
	return s, nil
}

// Save implements checkpoint.Snapshotter: the hierarchy counters and
// presence flags for the optional components, then one section per
// subcomponent (caches, MSHRs, buses, DRAM, prefetchers, dead-block
// predictor). The presence flags let Restore validate that the checkpoint
// and the receiving machine were built with the same topology.
func (m *MemSys) Save(w *checkpoint.Writer) error {
	w.Section("memsys")
	w.Bool(m.pfBus != nil)
	w.Bool(m.l2pf != nil)
	w.Bool(m.dbp != nil)
	for _, f := range m.st.own() {
		w.U64(*f)
	}
	if err := m.l1d.Save(w); err != nil {
		return err
	}
	if err := m.l2.Save(w); err != nil {
		return err
	}
	if err := m.mshr.Save(w); err != nil {
		return err
	}
	if err := m.l1Bus.Save(w); err != nil {
		return err
	}
	if m.pfBus != nil {
		if err := m.pfBus.Save(w); err != nil {
			return err
		}
	}
	if err := m.memBus.Save(w); err != nil {
		return err
	}
	if err := m.mem.Save(w); err != nil {
		return err
	}
	s, err := snapshotter(m.pf)
	if err != nil {
		return err
	}
	if err := s.Save(w); err != nil {
		return err
	}
	if m.l2pf != nil {
		s, err := snapshotter(m.l2pf)
		if err != nil {
			return err
		}
		if err := s.Save(w); err != nil {
			return err
		}
	}
	if m.dbp != nil {
		if err := m.dbp.Save(w); err != nil {
			return err
		}
	}
	return nil
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
	if err := m.l1d.Restore(r); err != nil {
		return err
	}
	if err := m.l2.Restore(r); err != nil {
		return err
	}
	if err := m.mshr.Restore(r); err != nil {
		return err
	}
	if err := m.l1Bus.Restore(r); err != nil {
		return err
	}
	if hasPfBus {
		if err := m.pfBus.Restore(r); err != nil {
			return err
		}
	}
	if err := m.memBus.Restore(r); err != nil {
		return err
	}
	if err := m.mem.Restore(r); err != nil {
		return err
	}
	s, err := snapshotter(m.pf)
	if err != nil {
		return err
	}
	if err := s.Restore(r); err != nil {
		return err
	}
	if hasL2pf {
		s, err := snapshotter(m.l2pf)
		if err != nil {
			return err
		}
		if err := s.Restore(r); err != nil {
			return err
		}
	}
	if hasDbp {
		if err := m.dbp.Restore(r); err != nil {
			return err
		}
	}
	m.PublishCounters()
	return nil
}
