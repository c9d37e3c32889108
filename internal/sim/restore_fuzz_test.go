package sim

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"tagprefetch/internal/addr"
)

// FuzzMachineRestore feeds mutated checkpoint images to every component
// decoder a machine holds. Each input pairs a fuzzRows row with an image.
// The fuzzer's bytes get a fresh CRC so mutations reach the section
// decoders instead of dying at the checksum gate, and RestoreImage into a
// fresh machine of the same row must return nil or an error, never panic.
//
// The seeds are every row's mid-warmup and post-boundary images. The
// rows' small caches keep the images near 35-65 KB, TCP-8M's, DBCP-2M's
// and Markov's included, since a correlation table codes only the sets
// the run trained. Minimizing an input at the default 60 s still stalls a
// short run: pass -fuzzminimizetime=1s, as CI does.
func FuzzMachineRestore(f *testing.F) {
	for i, lc := range fuzzRows() {
		m := mustMachine(f, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		for _, at := range []uint64{lc.cfg.Warmup / 2, lc.cfg.Warmup + lc.cfg.Instructions/2} {
			m.RunTo(at)
			img, err := m.Checkpoint()
			if err != nil {
				f.Fatalf("%s at %d: checkpoint: %v", lc.label, at, err)
			}
			f.Add(uint8(i), img)
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		if len(data) < 4 {
			return
		}
		rows := fuzzRows()
		lc := rows[int(row)%len(rows)]
		m := mustMachine(t, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		body := slices.Clone(data)
		binary.LittleEndian.PutUint32(body[len(body)-4:], crc32.ChecksumIEEE(body[:len(body)-4]))
		_ = m.RestoreImage(body) // nil or an error; a panic fails the input
	})
}

// fuzzRows is layoutConfigs with a small L1 and L2 (4 KB and 32 KB), so
// the cache arrays, which dominate an image, shrink about 20x while every
// row keeps its section decoders: the fuzzer mutates and restores
// thousands of images in the time the full-size ones allowed tens.
func fuzzRows() []layoutConfig {
	rows := layoutConfigs()
	for i := range rows {
		rows[i].cfg.Mem.L1D = addr.MustGeometry(4<<10, 1, 32)
		rows[i].cfg.Mem.L2 = addr.MustGeometry(32<<10, 4, 64)
	}
	return rows
}
