package cpu

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// saveResult writes a Result's counters (IPC is derived and recomputed by
// Finish, so it is not stored).
func saveResult(w *checkpoint.Writer, r *Result) {
	w.U64(r.Instructions)
	w.I64(r.Cycles)
	w.U64(r.Loads)
	w.U64(r.Stores)
	w.U64(r.Branches)
	w.U64(r.BranchMispredicts)
	w.U64(r.DispatchStallRUU)
	w.U64(r.DispatchStallLSQ)
	w.U64(r.FetchRedirectStall)
}

func restoreResult(rd *checkpoint.Reader, r *Result) {
	r.Instructions = rd.U64()
	r.Cycles = rd.I64()
	r.Loads = rd.U64()
	r.Stores = rd.U64()
	r.Branches = rd.U64()
	r.BranchMispredicts = rd.U64()
	r.DispatchStallRUU = rd.U64()
	r.DispatchStallLSQ = rd.U64()
	r.FetchRedirectStall = rd.U64()
}

// Save implements checkpoint.Snapshotter: run position and counters, the
// full pipeline rolling state (completion/commit rings, LSQ ring,
// functional-unit scoreboards, front-end cursors), and the branch predictor
// (tagged with its scheme name for structural validation).
func (c *Core) Save(w *checkpoint.Writer) {
	w.Section("cpu")
	w.U64(c.done)
	w.Bool(c.warmed)
	saveResult(w, &c.res)
	saveResult(w, &c.warmRes)

	p := c.p
	w.I64s(p.doneAt)
	w.I64s(p.commitAt)
	w.I64s(p.memCommit)
	w.Int(p.memCount)
	for _, pool := range [...]*fuPool{p.intALU, p.intMul, p.fpALU, p.fpMul, p.memPort} {
		w.I64s(pool.freeAt)
	}
	w.I64(p.dispatchCycle)
	w.Int(p.dispatchSlots)
	w.I64(p.commitCycle)
	w.Int(p.commitSlots)
	w.I64(p.lastCommit)
	w.I64(p.fetchResume)

	// Functional fast-forward state (atomic.go): whether the core is still
	// in the functional phase, and its clock. Both are zero for cores that
	// never fast-forwarded, and for sealed ones only the mode flag matters
	// (the clock already flowed into the pipeline cursors above).
	w.Bool(c.fastActive)
	w.I64(c.fclock)

	w.String(c.pred.Name())
	c.pred.Save(w)
}

// Restore implements checkpoint.Snapshotter. The core must be configured
// identically to the one that saved (ring sizes, functional-unit counts,
// predictor scheme); mismatches fail with a length or name error.
func (c *Core) Restore(r *checkpoint.Reader) error {
	if err := r.Section("cpu"); err != nil {
		return err
	}
	c.done = r.U64()
	c.warmed = r.Bool()
	restoreResult(r, &c.res)
	restoreResult(r, &c.warmRes)

	p := c.p
	r.ReadI64s(p.doneAt)
	r.ReadI64s(p.commitAt)
	r.ReadI64s(p.memCommit)
	memCount := r.Int()
	for _, pool := range [...]*fuPool{p.intALU, p.intMul, p.fpALU, p.fpMul, p.memPort} {
		r.ReadI64s(pool.freeAt)
	}
	p.dispatchCycle = r.I64()
	dispatchSlots := r.Int()
	p.commitCycle = r.I64()
	commitSlots := r.Int()
	p.lastCommit = r.I64()
	p.fetchResume = r.I64()
	fastActive := r.Bool()
	fclock := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if fclock < 0 {
		return fmt.Errorf("cpu: checkpoint functional clock %d negative", fclock)
	}
	c.fastActive = fastActive
	c.fclock = fclock
	if memCount < 0 {
		return fmt.Errorf("cpu: checkpoint LSQ count %d negative", memCount)
	}
	if dispatchSlots < 0 || dispatchSlots > c.cfg.IssueWidth ||
		commitSlots < 0 || commitSlots > c.cfg.IssueWidth {
		return fmt.Errorf("cpu: checkpoint slot counts (%d,%d) exceed issue width %d",
			dispatchSlots, commitSlots, c.cfg.IssueWidth)
	}
	p.memCount = memCount
	p.dispatchSlots = dispatchSlots
	p.commitSlots = commitSlots

	if name := r.String(); r.Err() == nil && name != c.pred.Name() {
		return fmt.Errorf("cpu: checkpoint predictor %q, core has %q", name, c.pred.Name())
	}
	if err := r.Err(); err != nil {
		return err
	}
	return c.pred.Restore(r)
}
