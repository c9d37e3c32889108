package cpu

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// snapshotResult codes a Result's counters (IPC is derived and recomputed
// by Finish, so it is not stored).
func snapshotResult(c *checkpoint.Codec, r *Result) {
	c.U64(&r.Instructions)
	c.I64(&r.Cycles)
	c.U64(&r.Loads)
	c.U64(&r.Stores)
	c.U64(&r.Branches)
	c.U64(&r.BranchMispredicts)
	c.U64(&r.DispatchStallRUU)
	c.U64(&r.FetchRedirectStall)
}

// Snapshot implements checkpoint.Snapshotter: run position and counters,
// the full pipeline rolling state (completion/commit rings,
// functional-unit scoreboards, front-end cursors), and the branch
// predictor (tagged with its scheme name for structural validation). The
// core must run the predictor scheme of the one encoded; a mismatch fails
// with a name error.
func (c *Core) Snapshot(cd *checkpoint.Codec) {
	cd.Section("cpu")
	cd.U64(&c.done)
	cd.Bool(&c.warmed)
	snapshotResult(cd, &c.res)
	snapshotResult(cd, &c.warmRes)

	p := c.p
	cd.I64s(p.doneAt[:])
	cd.I64s(p.commitAt[:])
	for _, pool := range [...]*fuPool{p.intALU, p.intMul, p.fpALU, p.fpMul, p.memPort} {
		cd.I64s(pool.freeAt)
	}
	cd.I64(&p.dispatchCycle)
	cd.Int(&p.dispatchSlots)
	cd.I64(&p.commitCycle)
	cd.Int(&p.commitSlots)
	cd.I64(&p.lastCommit)
	cd.I64(&p.fetchResume)

	// Functional fast-forward state (atomic.go): whether the core is still
	// in the functional phase, and its clock. Both are zero for cores that
	// never fast-forwarded, and for sealed ones only the mode flag matters
	// (the clock already flowed into the pipeline cursors above).
	cd.Bool(&c.fastActive)
	cd.I64(&c.fclock)
	switch {
	case c.fclock < 0:
		cd.Fail(fmt.Errorf("cpu: checkpoint functional clock %d negative", c.fclock))
	case p.dispatchSlots < 0 || p.dispatchSlots > IssueWidth || p.commitSlots < 0 || p.commitSlots > IssueWidth:
		cd.Fail(fmt.Errorf("cpu: checkpoint slot counts (%d,%d) exceed issue width %d", p.dispatchSlots, p.commitSlots, IssueWidth))
	}

	name := c.pred.Name()
	cd.String(&name)
	if name != c.pred.Name() {
		cd.Fail(fmt.Errorf("cpu: checkpoint predictor %q, core has %q", name, c.pred.Name()))
	}
	c.pred.Snapshot(cd)
}
