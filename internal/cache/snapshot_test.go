package cache

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
)

// TestCacheSnapshotLines: the line array, coded as one span, restores
// every frame into a fresh cache, and a flag byte other than 0 or 1 is
// corrupt, as Codec.Bool would report it.
func TestCacheSnapshotLines(t *testing.T) {
	c := New("l1", tinyGeom())
	for i := range 6 {
		a := addr.Addr(0x40 * i)
		c.Access(a, i%2 == 0, int64(i))
		c.Fill(a, int64(i), int64(i+10), i%3 == 0)
	}
	img := checkpoint.Encode(c)
	d := New("l1", tinyGeom())
	if err := checkpoint.Decode(img, d); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.lines, d.lines) || c.tick != d.tick || c.st != d.st {
		t.Fatalf("restored cache differs:\n got %+v\nwant %+v", d.lines, c.lines)
	}

	// Header, section header, tick, sets and ways precede line 0; its
	// Valid flag follows the tag.
	valid := 8 + 2 + len("cache.l1") + 4 + 8 + 4 + 4 + 8
	bad := append([]byte(nil), img...)
	bad[valid] = 2
	body := bad[:len(bad)-4]
	binary.LittleEndian.PutUint32(bad[len(body):], crc32.ChecksumIEEE(body))
	if err := checkpoint.Decode(bad, New("l1", tinyGeom())); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Errorf("flag byte 2 decoded with error %v, want ErrCorrupt", err)
	}
}
