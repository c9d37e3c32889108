package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRestore feeds arbitrary bytes to a decoding Codec driving the sample
// layout: the decode must either succeed or fail cleanly with an error,
// never panic, over-allocate, or read out of bounds — mirroring
// internal/trace's FuzzReader contract. An image it accepts must encode
// back byte-identical, since every decoded value is kept.
func FuzzRestore(f *testing.F) {
	valid := buildImage()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append([]byte(nil), valid[headerLen:]...))
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x43, 0x50, 0x43}) // magic only
	// A re-CRC'd corruption reaches the section parser instead of dying at
	// the checksum gate.
	mut := append([]byte(nil), valid...)
	mut[headerLen+3] ^= 0x40
	f.Add(reCRC(mut))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &sample{maxRun: 4}
		err := Decode(data, s)
		if err != nil {
			if len(data) < headerLen+trailerLen && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("short input error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if again := Encode(s); !bytes.Equal(again, data) {
			t.Fatal("accepted image does not encode back byte-identical")
		}
	})
}
