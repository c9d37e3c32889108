// Package a exercises same-package determinism taint: map iteration,
// select, and sync.Map derived values must not reach checkpoint,
// telemetry, or JSON sinks unless sorted first.
package a

import (
	"encoding/json"
	"sort"
	"sync"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/telemetry"
)

var hits *telemetry.Counter
var occupancy *telemetry.Gauge

// direct launders a map key through a local before encoding it.
func direct(c *checkpoint.Codec, m map[uint64]int) error {
	var last uint64
	for k := range m {
		last = k
	}
	c.U64(&last) // want `value derived from map iteration order flows into checkpoint\.Codec\.U64; produce it deterministically or sort before the sink`
	return nil
}

// sorted is the blessed collect-then-sort idiom: the sort sanitizes.
func sorted(c *checkpoint.Codec, m map[uint64]int) error {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	c.U64s(keys)
	return nil
}

// viaHelper forwards the tainted value through a same-package helper
// whose parameter carries a SinkParams fact.
func viaHelper(c *checkpoint.Codec, m map[uint64]int) {
	for k := range m {
		encode(c, k) // want `value derived from map iteration order flows into a\.encode; produce it deterministically or sort before the sink`
	}
}

// encode's second parameter flows into a sink, so callers are checked.
func encode(c *checkpoint.Codec, v uint64) {
	c.U64(&v)
}

// counted accumulates map values into a telemetry counter. The sum is
// order-independent in truth, but the analyzer cannot prove that; the
// deterministic rewrite (iterate sorted keys) is trivial, so no
// suppression here.
func counted(m map[uint64]int) {
	var n uint64
	for _, v := range m {
		n += uint64(v)
	}
	hits.Add(n) // want `value derived from map iteration order flows into telemetry\.Counter\.Add`
}

// selected records whichever channel fired first.
func selected(g *telemetry.Gauge, a, b chan float64) {
	var v float64
	select {
	case v = <-a:
	case v = <-b:
	}
	g.Set(v) // want `value derived from select arm choice flows into telemetry\.Gauge\.Set`
}

// syncMapped reads a racy table straight into a manifest.
func syncMapped(sm *sync.Map) ([]byte, error) {
	v, _ := sm.Load("epoch")
	return json.Marshal(v) // want `value derived from sync\.Map access flows into json\.Marshal`
}

// firstOf returns a map-order-dependent pick; TaintedReturn makes every
// caller's use of it suspect.
func firstOf(m map[uint64]int) uint64 {
	for k := range m {
		return k
	}
	return 0
}

// uses consumes firstOf's tainted result.
func uses(c *checkpoint.Codec, m map[uint64]int) {
	v := firstOf(m)
	c.U64(&v) // want `value derived from a nondeterministically-derived result of a\.firstOf flows into checkpoint\.Codec\.U64`
}

// waived is a deliberate, justified exception.
func waived(c *checkpoint.Codec, m map[uint64]int) {
	var last uint64
	for k := range m {
		last = k
	}
	//lint:ignore tcplint/detflow the value is a debug watermark, excluded from the replay digest
	c.U64(&last)
	_ = occupancy
}
