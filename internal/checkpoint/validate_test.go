package checkpoint

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestSectionsWalk(t *testing.T) {
	img := buildImage()
	secs, err := Sections(img)
	if err != nil {
		t.Fatalf("Sections: %v", err)
	}
	if len(secs) != 2 || secs[0].Name != "alpha" || secs[1].Name != "beta" {
		t.Fatalf("sections = %+v, want alpha then beta", secs)
	}
	// alpha holds every fixed-width primitive the sample encodes:
	// 1+1+1+4+8+8+8+8 bytes.
	if secs[0].Len != 39 {
		t.Errorf("alpha payload = %d, want 39", secs[0].Len)
	}
	for _, s := range secs {
		if s.Len < 0 {
			t.Errorf("section %q has negative length %d", s.Name, s.Len)
		}
	}

	// An empty image (header + trailer only) has no sections.
	empty := Encode(snapFunc(func(*Codec) {}))
	secs, err = Sections(empty)
	if err != nil || len(secs) != 0 {
		t.Errorf("Sections(empty) = %+v, %v; want none", secs, err)
	}
}

func TestValidate(t *testing.T) {
	img := buildImage()
	if err := Validate(img); err != nil {
		t.Fatalf("Validate(valid image): %v", err)
	}

	// Header/CRC corruption is caught by the decoder's gate.
	bad := append([]byte(nil), img...)
	bad[headerLen] ^= 0xFF
	if err := Validate(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Validate(flipped byte) = %v, want ErrCorrupt", err)
	}

	// Framing corruption behind a valid CRC — a section length pointing
	// past the image, as a buggy writer (not bit rot) would produce — is
	// caught by the section walk.
	overrun := append([]byte(nil), img...)
	// First section's payload length field sits after the header, the
	// 2-byte name length, and the name "alpha".
	lenOff := headerLen + 2 + len("alpha")
	binary.LittleEndian.PutUint32(overrun[lenOff:], 1<<30)
	overrun = reCRC(overrun)
	if err := Validate(overrun); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Validate(section overrun) = %v, want ErrCorrupt", err)
	}

	if err := Validate(nil); err == nil {
		t.Error("Validate(nil) succeeded")
	}
}
