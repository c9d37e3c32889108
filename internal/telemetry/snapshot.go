package telemetry

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter for the sampler: the next-sample
// cycle, per-probe ratio baselines, all recorded samples, and the phase
// boundaries. Probe registration (names and value functions) is structural
// — the restoring run re-registers the same probes — so only names are
// stored, for validation.
func (s *Sampler) Save(w *checkpoint.Writer) {
	w.Section("telemetry.sampler")
	w.I64(s.next)
	w.U64(s.truncated)
	w.U32(uint32(len(s.probes)))
	for i := range s.probes {
		p := &s.probes[i]
		w.String(p.name)
		w.F64(p.prevNum)
		w.F64(p.prevDen)
	}
	w.I64s(s.cycles)
	w.U64s(s.instrs)
	for i := range s.probes {
		w.F64s(s.values[i])
	}
	w.U32(uint32(len(s.phases)))
	for _, ph := range s.phases {
		w.String(ph.Name)
		w.I64(ph.Cycle)
		w.U64(ph.Instructions)
	}
}

// Restore implements checkpoint.Snapshotter. The sampler must have the
// same probes registered, in the same order, as the one that was saved.
func (s *Sampler) Restore(r *checkpoint.Reader) error {
	if err := r.Section("telemetry.sampler"); err != nil {
		return err
	}
	s.next = r.I64()
	s.truncated = r.U64()
	if n := int(r.U32()); r.Err() == nil && n != len(s.probes) {
		return fmt.Errorf("sampler: checkpoint has %d probes, want %d", n, len(s.probes))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range s.probes {
		p := &s.probes[i]
		if name := r.String(); r.Err() == nil && name != p.name {
			return fmt.Errorf("sampler: checkpoint probe %q, want %q", name, p.name)
		}
		p.prevNum = r.F64()
		p.prevDen = r.F64()
	}
	s.cycles = r.I64s()
	s.instrs = r.U64s()
	if len(s.instrs) != len(s.cycles) {
		return fmt.Errorf("sampler: %d instruction samples for %d cycle samples", len(s.instrs), len(s.cycles))
	}
	for i := range s.probes {
		s.values[i] = r.F64s()
		if r.Err() == nil && len(s.values[i]) != len(s.cycles) {
			return fmt.Errorf("sampler: probe %q has %d samples, want %d",
				s.probes[i].name, len(s.values[i]), len(s.cycles))
		}
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	s.phases = s.phases[:0]
	for i := 0; i < n; i++ {
		ph := Phase{Name: r.String(), Cycle: r.I64(), Instructions: r.U64()}
		if r.Err() != nil {
			break
		}
		s.phases = append(s.phases, ph)
	}
	return r.Err()
}
