package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/trace"
)

// missStream returns n deterministic misses over 64 sets. Tags come from a
// small alphabet, so sequences repeat (PHT hits, multi-target training) and
// collide under the truncated-addition hash (evictions); sets 0-3 see a
// constant tag stride for the stride assist.
func missStream(g addr.Geometry, n int) []trace.Miss {
	out := make([]trace.Miss, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		set := uint32(x % 64)
		tag := (x >> 32) % 12
		if set < 4 {
			tag = uint64(i) * 3
		}
		out[i] = missAt(g, tag, set)
	}
	return out
}

// reCRC rewrites the trailer of img so a mutated body passes the checksum
// gate and reaches the TCP decoder.
func reCRC(img []byte) []byte {
	body := img[:len(img)-4]
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(body))
	return img
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := l1()
	misses := missStream(g, 6000)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tcp-8K", TCP8K(g)},
		{"targets-3", Config{L1: g, Targets: 3}},
		{"stride-k3", Config{L1: g, HistoryDepth: 3, StrideAssist: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := New(tc.cfg)
			for _, m := range misses[:5000] {
				orig.OnMiss(m)
			}
			if s := orig.Stats(); s.Hits == 0 || s.Evictions == 0 {
				t.Fatalf("stream left the PHT barely exercised: %+v", s)
			}
			img := checkpoint.Encode(orig)
			got := New(tc.cfg)
			if err := checkpoint.Decode(img, got); err != nil {
				t.Fatal(err)
			}
			if again := checkpoint.Encode(got); !bytes.Equal(img, again) {
				t.Fatal("encoding after decoding is not byte-identical")
			}
			for i, m := range misses[5000:] {
				want := slices.Clone(orig.OnMiss(m))
				if have := got.OnMiss(m); !slices.Equal(have, want) {
					t.Fatalf("miss %d after restore: %+v, want %+v", i, have, want)
				}
			}
			if orig.Stats() != got.Stats() {
				t.Errorf("stats diverged: %+v vs %+v", got.Stats(), orig.Stats())
			}
		})
	}
}

func TestRestoreRejectsCorruptTables(t *testing.T) {
	g := l1()
	trained := func(cfg Config) *TCP {
		tcp := New(cfg)
		for _, m := range missStream(g, 2000) {
			tcp.OnMiss(m)
		}
		return tcp
	}
	for _, tc := range []struct {
		name string
		img  func() []byte
		into Config
	}{
		{"negative fill", func() []byte {
			tcp := trained(TCP8K(g))
			tcp.thtFill[7] = -1
			return checkpoint.Encode(tcp)
		}, TCP8K(g)},
		{"fill above depth", func() []byte {
			tcp := trained(TCP8K(g))
			tcp.thtFill[7] = 3
			return checkpoint.Encode(tcp)
		}, TCP8K(g)},
		{"tag wider than TagBits", func() []byte {
			d := newDense(TCP8K(g))
			d.pht[5] = denseEntry{tag: 1 << 16, valid: true}
			return d.image()
		}, TCP8K(g)},
		{"more targets than Targets", func() []byte {
			return checkpoint.Encode(trained(Config{L1: g, Targets: 2}))
		}, Config{L1: g, Targets: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tcp := New(tc.into)
			err := checkpoint.Decode(tc.img(), tcp)
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("Decode = %v, want an error wrapping ErrCorrupt", err)
			}
		})
	}
}

// TestOnMissAllocationFree feeds a tag that never repeats, so once the THT
// rows are full every update allocates (and trains) a fresh PHT entry.
func TestOnMissAllocationFree(t *testing.T) {
	g := l1()
	tcp := New(Config{L1: g, Targets: 4})
	var tag uint64
	for tag < 14 {
		tag++
		tcp.OnMiss(missAt(g, tag, uint32(tag%7)))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tag++
		tcp.OnMiss(missAt(g, tag, uint32(tag%7)))
	})
	if allocs != 0 {
		t.Errorf("OnMiss allocates %.2f times per call, want 0", allocs)
	}
	if s := tcp.Stats(); s.Allocs < 1001 {
		t.Errorf("only %d PHT allocations over 1001 fresh-tag misses", s.Allocs)
	}
}

// TestTCP8MHostFootprint pins the host cost of constructing the paper's
// 8 MB PHT: the 1 MB set directory plus pools for 4096 sets, about 1.9 MB.
// The full table (a 16-byte entry record plus one 8-byte target per way)
// would take 50 MB.
func TestTCP8MHostFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tcp := New(TCP8M(l1()))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tcp)
	if b := after.TotalAlloc - before.TotalAlloc; b > 2_000_000 {
		t.Errorf("New(TCP8M) allocates %d bytes, want at most 2 MB", b)
	}
}

// FuzzTCPRestore feeds arbitrary images to the TCP decoder. It must never
// panic; an image it accepts must encode back byte-identical and leave a TCP
// that keeps running. The fuzzer's bytes get a fresh CRC, so mutations
// reach the decoder instead of dying at the checksum gate. Images are about
// 50 KB, so minimizing a new input at the default 60 s stalls a short run:
// pass -fuzzminimizetime=1s as CI does.
func FuzzTCPRestore(f *testing.F) {
	g := l1()
	misses := missStream(g, 2100)
	tcp := New(TCP8K(g))
	for _, m := range misses[:2000] {
		tcp.OnMiss(m)
	}
	img := checkpoint.Encode(tcp)
	f.Add(img)
	mut := slices.Clone(img)
	mut[len(mut)/2] ^= 0x40
	f.Add(reCRC(mut))
	f.Add(zeroWayImage(g))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		data = reCRC(slices.Clone(data))
		tcp := New(TCP8K(g))
		if checkpoint.Decode(data, tcp) != nil {
			return
		}
		if again := checkpoint.Encode(tcp); !bytes.Equal(again, data) {
			t.Fatal("accepted image does not encode back byte-identical")
		}
		for _, m := range misses[2000:] {
			tcp.OnMiss(m)
		}
	})
}
