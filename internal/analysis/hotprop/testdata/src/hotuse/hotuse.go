// Package hotuse imports hotdep and checks that a //tcp:hotpath function
// here is held to hotdep's exported allocation summaries.
package hotuse

import "hotdep"

var ring hotdep.Ring

// step is hot and leans on the dependency.
//
//tcp:hotpath
func step() int {
	_ = hotdep.AllocDo() // want `calls hotdep\.AllocDo, which may allocate \(make`
	_ = hotdep.Chain()   // want `calls hotdep\.Chain, which may allocate \(calls hotdep\.AllocDo`
	ring.Push(1)         // want `calls hotdep\.Ring\.Push, which may allocate \(append`
	_ = hotdep.Clean()   // clean callee: allowed
	_ = hotdep.Fast()    // hot callee: its own body is enforced
	_ = hotdep.Spill()   // coldpath callee: justified slow path
	hotdep.Tally(nil)    // want `bump \(calls hotdep\.Tally: telemetry\.Counter\.Inc at hotdep\.go`
	return ring.Len()
}
