package prefetch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"tagprefetch/internal/checkpoint"
)

// denseTable is the reference for the sparse Table: the layout in which
// every set's ways are preallocated at ways[set*nways:] and their targets
// at targets[set*nways*ntargets:]. It mirrors the table's matching, victim
// rule, training and encoding, so the differential tests below hold the
// demand-materialised table to the same outcomes and checkpoint bytes.
type denseTable[K uint32 | uint64] struct {
	sets, nways, ntargets int
	keyMask               K
	ways                  []way[K]
	targets               []uint64
}

func newDenseTable[K uint32 | uint64](sets, ways, targets int, keyMask K) *denseTable[K] {
	return &denseTable[K]{sets: sets, nways: ways, ntargets: targets, keyMask: keyMask,
		ways: make([]way[K], sets*ways), targets: make([]uint64, sets*ways*targets)}
}

func (d *denseTable[K]) find(set uint64, key K) int {
	base := int(set) * d.nways
	for i := base; i < base+d.nways; i++ {
		if d.ways[i].valid && d.ways[i].key == key&d.keyMask {
			return i
		}
	}
	return -1
}

func (d *denseTable[K]) allocate(set uint64, key K) (int, K, bool) {
	base := int(set) * d.nways
	s := d.ways[base : base+d.nways]
	victim := 0
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].used < s[victim].used {
			victim = i
		}
	}
	old := s[victim]
	s[victim] = way[K]{key: key & d.keyMask, valid: true}
	return base + victim, old.key, old.valid
}

func (d *denseTable[K]) targetsOf(i int) []uint64 {
	return d.targets[i*d.ntargets:][:d.ways[i].n]
}

func (d *denseTable[K]) train(i int, target uint64) {
	list := d.targets[i*d.ntargets:][:d.ntargets]
	n := int(d.ways[i].n)
	j := 0
	for j < n && list[j] != target {
		j++
	}
	j = min(j, len(list)-1)
	copy(list[1:j+1], list[:j])
	list[0] = target
	d.ways[i].n = uint8(max(n, j+1))
}

// trainedSets lists the sets with a non-zero record in increasing order.
func (d *denseTable[K]) trainedSets() []int {
	var sets []int
	for set := range d.sets {
		if slices.ContainsFunc(d.ways[set*d.nways:][:d.nways], func(w way[K]) bool { return w != way[K]{} }) {
			sets = append(sets, set)
		}
	}
	return sets
}

// image returns the dense table's checkpoint as tableSection encodes the
// sparse one. It is encoded by hand, container framing included, so the
// reference shares no code with the codec under test. It codes every set
// with a non-zero record: on the run path, exactly the sets the sparse
// table materialised.
func (d *denseTable[K]) image() []byte {
	le := binary.LittleEndian
	sets := d.trainedSets()
	p := le.AppendUint32(nil, uint32(len(d.ways)))
	p = le.AppendUint32(p, uint32(len(sets)))
	for _, set := range sets {
		p = le.AppendUint32(p, uint32(set))
		for i := set * d.nways; i < (set+1)*d.nways; i++ {
			w := d.ways[i]
			if uint64(d.keyMask) <= math.MaxUint32 {
				p = le.AppendUint32(p, uint32(w.key))
			} else {
				p = le.AppendUint64(p, uint64(w.key))
			}
			p = le.AppendUint64(p, uint64(w.used))
			valid := byte(0)
			if w.valid {
				valid = 1
			}
			p = append(p, valid)
			p = le.AppendUint32(p, uint32(w.n))
			for _, tg := range d.targetsOf(i) {
				p = le.AppendUint64(p, tg)
			}
		}
	}
	img := le.AppendUint32(nil, checkpoint.Magic)
	img = le.AppendUint16(img, checkpoint.Version)
	img = le.AppendUint16(img, 0)
	img = le.AppendUint16(img, uint16(len("table")))
	img = append(img, "table"...)
	img = le.AppendUint32(img, uint32(len(p)))
	img = append(img, p...)
	return le.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// tableSection checkpoints a table alone, in a section of its own.
type tableSection[K uint32 | uint64] struct{ t *Table[K] }

func (s tableSection[K]) Snapshot(c *checkpoint.Codec) {
	c.Section("table")
	s.t.Snapshot(c)
}

// tableOp is one caller step: an update (find or allocate key in set,
// stamp it and train target) or a lookup (find key, stamp it on a hit).
type tableOp struct {
	set    uint64
	key    uint64
	target uint64
	lookup bool
}

// mixedOps returns n seeded ops over sets. Half come from 64 sets and a
// 12-key alphabet, so keys repeat (hits, multi-target training) and
// collide (evictions). The other half spread over every set with wide
// keys, materialising a fresh set on most updates.
func mixedOps(sets int, seed uint64, n int) []tableOp {
	out := make([]tableOp, n)
	x := seed*0x9E3779B97F4A7C15 | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := tableOp{target: (x >> 40) % 5, lookup: x&6 == 0}
		if x&1 == 0 {
			op.set = (x >> 1) % uint64(min(sets, 64))
			op.key = (x>>32)%12 | 1<<20 // a bit the 16-bit masks drop
		} else {
			op.set = (x >> 8) % uint64(sets)
			op.key = x * 0xBF58476D1CE4E5B9
		}
		out[i] = op
	}
	return out
}

// lockstep applies ops to both tables, failing at the first op whose
// outcome differs: the hit, a displaced key, or the way's target list
// afterwards. Every saveEvery ops (0: never) it also compares checkpoint
// bytes. clock stamps recency and advances per op.
func lockstep[K uint32 | uint64](t *testing.T, sparse *Table[K], dense *denseTable[K], ops []tableOp, clock *int64, saveEvery int) {
	t.Helper()
	for n, op := range ops {
		*clock++
		key := K(op.key)
		i, j := sparse.Find(op.set, key), dense.find(op.set, key)
		if (i < 0) != (j < 0) {
			t.Fatalf("op %d %+v: found %v, want %v", n, op, i >= 0, j >= 0)
		}
		if !op.lookup && i < 0 {
			var ev, dev K
			var ok, dok bool
			i, ev, ok = sparse.Allocate(op.set, key)
			j, dev, dok = dense.allocate(op.set, key)
			if ev != dev || ok != dok {
				t.Fatalf("op %d %+v: displaced (%#x, %v), want (%#x, %v)", n, op, ev, ok, dev, dok)
			}
		}
		if i >= 0 {
			sparse.Touch(i, *clock)
			dense.ways[j].used = *clock
			if !op.lookup {
				sparse.Train(i, op.target)
				dense.train(j, op.target)
			}
			if have, want := sparse.Targets(i), dense.targetsOf(j); !slices.Equal(have, want) {
				t.Fatalf("op %d %+v: targets %v, want %v", n, op, have, want)
			}
		}
		if saveEvery > 0 && (n+1)%saveEvery == 0 && !bytes.Equal(checkpoint.Encode(tableSection[K]{sparse}), dense.image()) {
			t.Fatalf("image after %d ops differs from the dense table's", n+1)
		}
	}
}

// checkAgainstDense drives a sparse table and the dense reference with two
// seeded op streams, the second after restoring the dense table's image
// into the sparse one, which reuses its pools' stale frames.
func checkAgainstDense[K uint32 | uint64](t *testing.T, sets, ways, targets int, keyMask K, n int) {
	sparse := NewTable(sets, ways, targets, keyMask)
	dense := newDenseTable(sets, ways, targets, keyMask)
	var clock int64
	lockstep(t, &sparse, dense, mixedOps(sets, 7, n), &clock, 1000)
	if trained := len(dense.trainedSets()); sets > initialFrames && trained <= initialFrames {
		t.Errorf("%d sets trained, want more than %d to cover pool growth", trained, initialFrames)
	}
	if err := checkpoint.Decode(dense.image(), tableSection[K]{&sparse}); err != nil {
		t.Fatal(err)
	}
	lockstep(t, &sparse, dense, mixedOps(sets, 8, 2000), &clock, 1000)
}

// TestTableMatchesDense holds the sparse table to the dense reference in
// the shapes its users give it: TCP's PHTs (16-bit partial tags coded as
// u32), DBCP's 2 MB table (one target, u64 keys) and the Markov table (two
// targets, u64 keys).
func TestTableMatchesDense(t *testing.T) {
	t.Run("tcp-8K", func(t *testing.T) { checkAgainstDense(t, 256, 8, 1, uint32(0xFFFF), 6000) })
	t.Run("tcp-targets-3", func(t *testing.T) { checkAgainstDense(t, 256, 8, 3, uint32(0xFFFF), 6000) })
	t.Run("tcp-growth", func(t *testing.T) { checkAgainstDense(t, 8192, 8, 1, uint32(0xFFFF), 20000) })
	t.Run("dbcp-2M", func(t *testing.T) { checkAgainstDense(t, 32768, 8, 1, uint64(math.MaxUint64), 20000) })
	t.Run("markov", func(t *testing.T) { checkAgainstDense(t, 32768, 4, 2, uint64(math.MaxUint64), 20000) })
}

// TestTableGrowthBounded checks the pool growth rule on a 262144-set
// table (TCP-8M's PHT) into which tens of thousands of sets allocate:
// doubling keeps the allocation count logarithmic and the cumulative
// bytes within twice the final pools.
func TestTableGrowthBounded(t *testing.T) {
	tab := NewTable(262144, 8, 1, uint32(0xFFFF))
	ops := mixedOps(262144, 3, 60000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, op := range ops {
		tab.Allocate(op.set, uint32(op.key))
	}
	runtime.ReadMemStats(&after)

	sets := len(tab.ways) / tab.nways
	if sets < 20_000 {
		t.Fatalf("ops materialised %d sets, want at least 20000", sets)
	}
	doublings := bits.Len(uint((sets - 1) / initialFrames)) // ceil(log2(sets/4096))
	if n, limit := after.Mallocs-before.Mallocs, uint64(2*doublings+2); n > limit || n > tab.GrowthAllowance() {
		t.Errorf("%d sets: allocating made %d heap allocations, want at most %d and within GrowthAllowance %d",
			sets, n, limit, tab.GrowthAllowance())
	}
	pools := uint64(cap(tab.ways))*uint64(unsafe.Sizeof(way[uint32]{})) + uint64(cap(tab.targets))*8
	if b := after.TotalAlloc - before.TotalAlloc; b > 2*pools {
		t.Errorf("%d sets: allocating took %d bytes, want at most 2 x pools %d", sets, b, pools)
	}
}

// fuzzOps decodes 5 bytes per op: a little-endian u16 whose top bit marks
// a lookup and whose low bits pick the set, a u16 key spread over 64 bits,
// and a target byte.
func fuzzOps(sets int, data []byte) []tableOp {
	out := make([]tableOp, 0, len(data)/5)
	for ; len(data) >= 5; data = data[5:] {
		s := binary.LittleEndian.Uint16(data)
		key := uint64(binary.LittleEndian.Uint16(data[2:]))
		out = append(out, tableOp{set: uint64(s&0x7FFF) % uint64(sets), key: key * 0x9E3779B97F4A7C15,
			target: uint64(data[4]), lookup: s&0x8000 != 0})
	}
	return out
}

// FuzzSparseTable is the differential oracle under fuzzing: any op stream
// must give the sparse and the dense table equal outcomes at every op and
// equal checkpoint bytes at the end, both for a TCP-shaped table with u32
// keys (8192 sets, so a long input grows the pools past NewTable's 4096-set
// reservation) and for a two-target table with u64 keys. Pass
// -fuzzminimizetime=10x as CI does: each input encodes four images.
func FuzzSparseTable(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3} {
		var data []byte
		for _, op := range mixedOps(8192, seed, 400) {
			s := uint16(op.set)
			if op.lookup {
				s |= 0x8000
			}
			data = binary.LittleEndian.AppendUint16(data, s)
			data = binary.LittleEndian.AppendUint16(data, uint16(op.key))
			data = append(data, byte(op.target))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		narrow, narrowRef := NewTable(8192, 8, 1, uint32(0xFFFF)), newDenseTable(8192, 8, 1, uint32(0xFFFF))
		wide, wideRef := NewTable(1024, 4, 2, uint64(math.MaxUint64)), newDenseTable(1024, 4, 2, uint64(math.MaxUint64))
		var clock int64
		lockstep(t, &narrow, narrowRef, fuzzOps(8192, data), &clock, 0)
		lockstep(t, &wide, wideRef, fuzzOps(1024, data), &clock, 0)
		if !bytes.Equal(checkpoint.Encode(tableSection[uint32]{&narrow}), narrowRef.image()) ||
			!bytes.Equal(checkpoint.Encode(tableSection[uint64]{&wide}), wideRef.image()) {
			t.Fatalf("image differs from the dense table's after %d ops", len(data)/5)
		}
	})
}
