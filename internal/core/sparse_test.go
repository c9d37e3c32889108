package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

// denseTCP is the reference TCP for the sparse PHT: the layout in which
// every PHT set's ways are preallocated at pht[set*PHTWays:] and their
// targets at targets[set*PHTWays*Targets:]. It mirrors TCP's update,
// lookup and encoding, so the differential tests below hold the demand-
// materialised tables to the same requests, counters and checkpoint bytes.
type denseTCP struct {
	geo     *TCP // index hash and geometry only; its own tables stay empty
	cfg     Config
	tht     []uint64
	thtFill []int
	pht     []denseEntry
	targets []uint64
	clock   int64
	st      Stats
}

// denseEntry is one PHT way of the reference.
type denseEntry struct {
	used  int64
	tag   uint32
	n     uint8
	valid bool
}

func newDense(cfg Config) *denseTCP {
	geo := New(cfg)
	cfg = geo.cfg
	return &denseTCP{
		geo:     geo,
		cfg:     cfg,
		tht:     make([]uint64, cfg.L1.Sets()*cfg.HistoryDepth),
		thtFill: make([]int, cfg.L1.Sets()),
		pht:     make([]denseEntry, cfg.PHTSets*cfg.PHTWays),
		targets: make([]uint64, cfg.PHTSets*cfg.PHTWays*cfg.Targets),
	}
}

func (d *denseTCP) probe(setIdx, lastTag uint64) int {
	base := int(setIdx) * d.cfg.PHTWays
	key := uint32(lastTag & d.geo.tagMask)
	for i := base; i < base+d.cfg.PHTWays; i++ {
		if d.pht[i].valid && d.pht[i].tag == key {
			return i
		}
	}
	return -1
}

func (d *denseTCP) allocate(setIdx, lastTag uint64) int {
	if i := d.probe(setIdx, lastTag); i >= 0 {
		return i
	}
	base := int(setIdx) * d.cfg.PHTWays
	set := d.pht[base : base+d.cfg.PHTWays]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	d.st.Allocs++
	if set[victim].valid {
		d.st.Evictions++
	}
	set[victim] = denseEntry{tag: uint32(lastTag & d.geo.tagMask), valid: true}
	return base + victim
}

func (d *denseTCP) entryTargets(i int) []uint64 {
	return d.targets[i*d.cfg.Targets:][:d.pht[i].n]
}

func (d *denseTCP) train(i int, successor uint64) {
	list := d.targets[i*d.cfg.Targets:][:d.cfg.Targets]
	n := int(d.pht[i].n)
	j := 0
	for j < n && list[j] != successor {
		j++
	}
	j = min(j, len(list)-1)
	copy(list[1:j+1], list[:j])
	list[0] = successor
	d.pht[i].n = uint8(max(n, j+1))
}

func (d *denseTCP) OnMiss(m trace.Miss) []prefetch.Request {
	d.st.Misses++
	d.clock++
	k := d.cfg.HistoryDepth
	row := d.tht[int(m.Index)*k:][:k]
	if d.thtFill[m.Index] == k {
		i := d.allocate(d.geo.phtIndex(row, m.Index), row[k-1])
		d.pht[i].used = d.clock
		d.train(i, m.Tag)
		d.st.Updates++
	}
	if d.thtFill[m.Index] < k {
		row[d.thtFill[m.Index]] = m.Tag
		d.thtFill[m.Index]++
	} else {
		copy(row, row[1:])
		row[k-1] = m.Tag
	}
	if d.thtFill[m.Index] < k {
		return nil
	}
	d.st.Lookups++
	var reqs []prefetch.Request
	if i := d.probe(d.geo.phtIndex(row, m.Index), m.Tag); i >= 0 && d.pht[i].n > 0 {
		d.pht[i].used = d.clock
		d.st.Hits++
		for _, tg := range d.entryTargets(i) {
			a := d.cfg.L1.Compose(tg, m.Index)
			if d.cfg.L1.Block(m.Addr) == a {
				continue
			}
			reqs = append(reqs, prefetch.Request{Addr: a, ToL1: d.cfg.PrefetchToL1})
			d.st.Predictions++
		}
	}
	if d.cfg.StrideAssist {
		if next, ok := stridedNext(row); ok {
			a := d.cfg.L1.Compose(next, m.Index)
			if a != d.cfg.L1.Block(m.Addr) && !hasTarget(reqs, a) {
				reqs = append(reqs, prefetch.Request{Addr: a, ToL1: d.cfg.PrefetchToL1})
				d.st.StridePredictions++
			}
		}
	}
	return reqs
}

// image returns the dense table's checkpoint in TCP's format. It is
// encoded by hand, container framing included, so the reference shares no
// code with the codec under test. It codes every set with a non-zero
// record: on the run path, exactly the sets the sparse table materialised.
func (d *denseTCP) image() []byte { return d.imageOf(d.trainedSets()) }

// trainedSets lists the sets with a non-zero record in increasing order.
func (d *denseTCP) trainedSets() []int {
	w := d.cfg.PHTWays
	var sets []int
	for set := range d.cfg.PHTSets {
		if slices.ContainsFunc(d.pht[set*w:][:w], func(e denseEntry) bool { return e != denseEntry{} }) {
			sets = append(sets, set)
		}
	}
	return sets
}

// imageOf is image with the PHT sets coded in the order given; a set
// outside the table codes as all-zero records.
func (d *denseTCP) imageOf(sets []int) []byte {
	le := binary.LittleEndian
	p := le.AppendUint64(nil, uint64(d.clock))
	p = le.AppendUint32(p, uint32(len(d.thtFill)))
	p = le.AppendUint32(p, uint32(d.cfg.HistoryDepth))
	for _, tag := range d.tht {
		p = le.AppendUint64(p, tag)
	}
	p = le.AppendUint32(p, uint32(len(d.thtFill)))
	for _, f := range d.thtFill {
		p = le.AppendUint64(p, uint64(f))
	}
	p = le.AppendUint32(p, uint32(len(d.pht)))
	p = le.AppendUint32(p, uint32(len(sets)))
	w := d.cfg.PHTWays
	for _, set := range sets {
		p = le.AppendUint32(p, uint32(set))
		for way := range w {
			var e denseEntry
			var targets []uint64
			if set < d.cfg.PHTSets {
				e, targets = d.pht[set*w+way], d.entryTargets(set*w+way)
			}
			p = le.AppendUint32(p, e.tag)
			p = le.AppendUint64(p, uint64(e.used))
			valid := byte(0)
			if e.valid {
				valid = 1
			}
			p = append(p, valid)
			p = le.AppendUint32(p, uint32(e.n))
			for _, tg := range targets {
				p = le.AppendUint64(p, tg)
			}
		}
	}
	for _, f := range d.st.fields() {
		p = le.AppendUint64(p, *f)
	}
	// One "tcp" section between the header and the CRC trailer.
	img := le.AppendUint32(nil, checkpoint.Magic)
	img = le.AppendUint16(img, checkpoint.Version)
	img = le.AppendUint16(img, 0)
	img = le.AppendUint16(img, uint16(len("tcp")))
	img = append(img, "tcp"...)
	img = le.AppendUint32(img, uint32(len(p)))
	img = append(img, p...)
	return le.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// mixedMisses returns n seeded misses. Half come from 64 sets and a
// 12-tag alphabet, so sequences repeat (hits, multi-target training) and
// collide (evictions); sets 0-3 of those stride for the stride assist. The
// other half spread over every L1 set with 16-bit tags, materialising a
// fresh PHT set on most updates once the miss index picks the set.
func mixedMisses(g addr.Geometry, seed uint64, n int) []trace.Miss {
	out := make([]trace.Miss, n)
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			set := uint32(x>>1) % 64
			tag := (x >> 32) % 12
			if set < 4 {
				tag = uint64(i) * 3
			}
			out[i] = missAt(g, tag, set)
			continue
		}
		out[i] = missAt(g, (x>>32)&0xFFFF, uint32(x>>8)%uint32(g.Sets()))
	}
	return out
}

// lockstep feeds misses to both TCPs, failing at the first miss whose
// requests or counters differ. Every saveEvery misses (0: never) it also
// compares checkpoint bytes.
func lockstep(t *testing.T, sparse *TCP, dense *denseTCP, misses []trace.Miss, saveEvery int) {
	t.Helper()
	for i, m := range misses {
		have := sparse.OnMiss(m)
		if want := dense.OnMiss(m); !slices.Equal(have, want) {
			t.Fatalf("miss %d: %+v, want %+v", i, have, want)
		}
		if sparse.Stats() != dense.st {
			t.Fatalf("miss %d: stats %+v, want %+v", i, sparse.Stats(), dense.st)
		}
		if saveEvery > 0 && (i+1)%saveEvery == 0 && !bytes.Equal(checkpoint.Encode(sparse), dense.image()) {
			t.Fatalf("image after %d misses differs from the dense table's", i+1)
		}
	}
}

// TestSparsePHTMatchesDense drives the sparse TCP and the dense reference
// with the same seeded miss streams: every OnMiss returns the same
// requests, the counters agree, and checkpoint bytes are equal every 1000
// misses. A second stream after restoring an empty image reuses the pools'
// stale frames.
func TestSparsePHTMatchesDense(t *testing.T) {
	g := l1()
	for _, tc := range []struct {
		name   string
		cfg    Config
		misses int
	}{
		{"tcp-8K", TCP8K(g), 6000},
		// About 5000 materialised sets: the pools grow past New's
		// reservation.
		{"tcp-8M", TCP8M(g), 10000},
		{"targets-3", Config{L1: g, Targets: 3}, 6000},
		{"stride-k3", Config{L1: g, HistoryDepth: 3, StrideAssist: true}, 6000},
		{"hash-xor", Config{L1: g, Hash: HashXOR, PHTSets: 1024, IndexBits: 4}, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sparse, dense := New(tc.cfg), newDense(tc.cfg)
			lockstep(t, sparse, dense, mixedMisses(g, 7, tc.misses), 1000)
			s := sparse.Stats()
			if s.Hits == 0 || s.Evictions == 0 {
				t.Errorf("stream left the PHT barely exercised: %+v", s)
			}
			if tc.cfg.StrideAssist && s.StridePredictions == 0 {
				t.Error("stride assist never predicted")
			}
			if sets := len(dense.trainedSets()); tc.name == "tcp-8M" && sets <= 4096 {
				t.Errorf("%d sets trained, want more than the 4096 a table reserves, to cover pool growth", sets)
			}
			if err := checkpoint.Decode(newDense(tc.cfg).image(), sparse); err != nil {
				t.Fatal(err)
			}
			lockstep(t, sparse, newDense(tc.cfg), mixedMisses(g, 8, 2000), 1000)
		})
	}
}

// zeroWayImage is a TCP-8K checkpoint in which set 5 has an all-zero way 0
// ahead of a trained way 3, and every other set is all zero.
func zeroWayImage(g addr.Geometry) []byte {
	d := newDense(TCP8K(g))
	i := 5*d.cfg.PHTWays + 3
	d.pht[i] = denseEntry{used: 9, tag: 42, n: 1, valid: true}
	d.targets[i*d.cfg.Targets] = 77
	d.clock = 9
	return d.image()
}

// TestRestoreMaterialisesOnlyTrainedSets decodes hand-built images into a
// trained TCP: they re-encode to the same bytes, and an image codes
// exactly the materialised sets, so exactly the coded sets were
// materialised. A set list out of range or out of order, or longer than
// the table, is corrupt.
func TestRestoreMaterialisesOnlyTrainedSets(t *testing.T) {
	g := l1()
	sets := TCP8K(g).PHTSets
	zero := newDense(TCP8K(g))
	for _, tc := range []struct {
		name    string
		img     []byte
		corrupt bool
	}{
		{"zero way before trained way", zeroWayImage(g), false},
		{"only zero sets", newDense(TCP8K(g)).image(), false},
		{"invalid way with non-zero fields", func() []byte {
			d := newDense(TCP8K(g))
			d.pht[9*d.cfg.PHTWays+2] = denseEntry{used: 3, tag: 7}
			return d.image()
		}(), false},
		{"coded zero set", zero.imageOf([]int{4}), false},
		{"set out of range", zero.imageOf([]int{3, sets}), true},
		{"repeated set", zero.imageOf([]int{5, 5}), true},
		{"decreasing set", zero.imageOf([]int{9, 5}), true},
		{"count over PHTSets", zero.imageOf(make([]int, sets+1)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tcp := New(TCP8K(g))
			for _, m := range missStream(g, 2000) { // stale sets decoding must drop
				tcp.OnMiss(m)
			}
			err := checkpoint.Decode(tc.img, tcp)
			if tc.corrupt {
				if !errors.Is(err, checkpoint.ErrCorrupt) {
					t.Fatalf("Decode = %v, want an error wrapping ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if again := checkpoint.Encode(tcp); !bytes.Equal(again, tc.img) {
				t.Error("encoding after decoding is not byte-identical")
			}
		})
	}
}

// TestOnMissGrowthBounded drives a TCP-8M stream that trains tens of
// thousands of PHT sets, past the pools the table reserves: OnMiss
// allocates only to grow them, within the table's GrowthAllowance, which
// internal/prefetch's TestTableGrowthBounded checks in bytes too.
func TestOnMissGrowthBounded(t *testing.T) {
	g := l1()
	misses := make([]trace.Miss, 60000)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range misses {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		misses[i] = missAt(g, (x>>32)&0xFFFF, uint32(x)%uint32(g.Sets()))
	}
	tcp := New(TCP8M(g))
	// With the collector off, no GC-triggered runtime work (such as the
	// unique-handle cleanup) allocates inside the measured window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range misses {
		tcp.OnMiss(m)
	}
	runtime.ReadMemStats(&after)
	if n, limit := after.Mallocs-before.Mallocs, tcp.pht.GrowthAllowance(); n == 0 || n > limit {
		t.Errorf("OnMiss allocated %d times, want between 1 (the pools grow) and %d", n, limit)
	}
}
