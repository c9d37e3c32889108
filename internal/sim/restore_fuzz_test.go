package sim

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzMachineRestore feeds mutated checkpoint images to every component
// decoder a machine holds. Each input pairs a layoutConfigs row with an
// image. The fuzzer's bytes get a fresh CRC so mutations reach the section
// decoders instead of dying at the checksum gate, and RestoreImage into a
// fresh machine of the same row must return nil or an error, never panic.
//
// The seeds are every row's mid-warmup and post-boundary images, except
// those over maxFuzzSeed: the engine marshals a seed to up to four times
// its size and rejects one over 100 MB, which the 8 MB TCP's 45 MB images
// are. That row's decoders are the tcp-8K rows'. The other images take
// 0.8 to 7 MB, so pass -fuzzminimizetime=1s for short runs, as CI does.
func FuzzMachineRestore(f *testing.F) {
	const maxFuzzSeed = 16 << 20
	for i, lc := range layoutConfigs() {
		m := mustMachine(f, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		for _, at := range []uint64{lc.cfg.Warmup / 2, lc.cfg.Warmup + lc.cfg.Instructions/2} {
			m.RunTo(at)
			img, err := m.Checkpoint()
			if err != nil {
				f.Fatalf("%s at %d: checkpoint: %v", lc.label, at, err)
			}
			if len(img) <= maxFuzzSeed {
				f.Add(uint8(i), img)
			}
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, data []byte) {
		if len(data) < 4 {
			return
		}
		rows := layoutConfigs()
		lc := rows[int(row)%len(rows)]
		m := mustMachine(t, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		body := slices.Clone(data)
		binary.LittleEndian.PutUint32(body[len(body)-4:], crc32.ChecksumIEEE(body[:len(body)-4]))
		_ = m.RestoreImage(body) // nil or an error; a panic fails the input
	})
}
