package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Manifest decoding: template match, else encoding/json. Every cached
// re-run of a grid, every resumed figure suite and every new daemon reads
// one manifest per grid point, and Save writes each in one layout:
// json.MarshalIndent(v, "", "  ") of a storedResult plus a newline. The
// read path matches the bytes against that layout, a template derived
// from storedResult once. Each literal run between values (braces, keys,
// indentation, ",\n") is compared as it stands and each value is parsed
// in place: an escape-free printable-ASCII string, true or false, a
// number in canonical grammar through strconv, an integer only for an
// integer field. At the first byte that differs the input goes to
// json.Unmarshal whole, so parseManifest returns what encoding/json
// returns on every input (FuzzParseManifest checks this differentially
// against json.Unmarshal).

// manifestSlot is one value of the template: the literal bytes that
// precede it, its field path in storedResult and its kind.
type manifestSlot struct {
	lit   string
	index []int
	kind  reflect.Kind
}

// manifestTemplate is Save's layout: every value slot in write order, then
// the literal bytes that end the file.
type manifestTemplate struct {
	slots []manifestSlot
	tail  string
}

// manifestLayout is derived from storedResult once, so a counter added to
// sim.Result is matched without any list to update.
var manifestLayout = templateOf(reflect.TypeOf(storedResult{}))

// templateOf lays struct type t out as Save writes it. A pointer field
// tagged omitempty is laid out absent, as Save writes it when nil: a
// manifest that carries it goes to the fallback. Any other field the
// template does not decode — an embedded struct, another json tag, a kind
// sim.Result does not use — becomes a slot of kind Invalid that no input
// matches, so every manifest goes to the fallback (and
// TestFastPathAcceptsWrittenManifests fails until the template learns it).
func templateOf(t reflect.Type) manifestTemplate {
	var tm manifestTemplate
	var lit strings.Builder
	var object func(t reflect.Type, index []int, indent string)
	object = func(t reflect.Type, index []int, indent string) {
		lit.WriteByte('{')
		sep := "\n"
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if (!sf.IsExported() && !sf.Anonymous) ||
				(sf.Type.Kind() == reflect.Pointer && sf.Tag.Get("json") == ",omitempty") {
				continue
			}
			lit.WriteString(sep + indent + `  "` + sf.Name + `": `)
			sep = ",\n"
			path := append(index[:len(index):len(index)], i)
			kind := sf.Type.Kind()
			switch {
			case sf.Anonymous || sf.Tag.Get("json") != "":
				kind = reflect.Invalid
			case kind == reflect.Struct:
				object(sf.Type, path, indent+"  ")
				continue
			case kind != reflect.String && kind != reflect.Bool && kind != reflect.Float64 &&
				kind != reflect.Int64 && kind != reflect.Uint64:
				kind = reflect.Invalid
			}
			tm.slots = append(tm.slots, manifestSlot{lit: lit.String(), index: path, kind: kind})
			lit.Reset()
		}
		if sep != "\n" {
			lit.WriteString("\n" + indent)
		}
		lit.WriteByte('}')
	}
	object(t, nil, "")
	lit.WriteByte('\n')
	tm.tail = lit.String()
	return tm
}

// parseManifest decodes and validates one manifest into *sr, which the
// caller allocates (a memo entry holds it, so the decode adds no
// allocation of its own). Truncated, corrupt or identity-less bytes error
// and leave *sr zero — the caller treats any error as "job not done",
// never as a partial result.
func parseManifest(data []byte, sr *storedResult) error {
	if !manifestLayout.match(data, reflect.ValueOf(sr).Elem()) {
		*sr = storedResult{}
		if err := json.Unmarshal(data, sr); err != nil {
			*sr = storedResult{}
			return fmt.Errorf("experiment: corrupt manifest: %w", err)
		}
	}
	if sr.Bench == "" || sr.Factory == "" {
		*sr = storedResult{}
		return errors.New("experiment: corrupt manifest: missing job identity")
	}
	return nil
}

// match decodes data into the storedResult v and reports whether data is
// the template with a value in every slot. A false return leaves v partly
// written; parseManifest then discards it.
func (tm *manifestTemplate) match(data []byte, v reflect.Value) bool {
	for i := range tm.slots {
		s := &tm.slots[i]
		if !hasLit(data, s.lit) {
			return false
		}
		n := s.decode(data[len(s.lit):], v.FieldByIndex(s.index))
		if n == 0 {
			return false
		}
		data = data[len(s.lit)+n:]
	}
	return string(data) == tm.tail
}

// decode parses the slot's value at the start of b into f and returns its
// length in bytes, or 0 if b does not start with a value the slot takes.
func (s *manifestSlot) decode(b []byte, f reflect.Value) int {
	switch s.kind {
	case reflect.String:
		n := quoted(b)
		if n > 0 {
			f.SetString(string(b[1 : n-1]))
		}
		return n
	case reflect.Bool:
		switch {
		case hasLit(b, "true"):
			f.SetBool(true)
			return len("true")
		case hasLit(b, "false"):
			f.SetBool(false)
			return len("false")
		}
		return 0
	}
	n, integer := number(b)
	if n == 0 {
		return 0
	}
	var err error
	switch s.kind {
	case reflect.Float64:
		var x float64
		x, err = strconv.ParseFloat(string(b[:n]), 64)
		f.SetFloat(x)
	case reflect.Uint64:
		var x uint64
		x, err = strconv.ParseUint(string(b[:n]), 10, 64)
		f.SetUint(x)
	case reflect.Int64:
		var x int64
		x, err = strconv.ParseInt(string(b[:n]), 10, 64)
		f.SetInt(x)
	default:
		return 0
	}
	if err != nil || (!integer && s.kind != reflect.Float64) {
		return 0
	}
	return n
}

// quoted returns the length, quotes included, of the string literal at
// the start of b if it holds only printable ASCII and no escape, else 0:
// encoding/json would unescape, validate or replace anything else.
func quoted(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return 0
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20 || c == '\\' || c >= 0x80:
			return 0
		}
	}
	return 0
}

// number returns the length of the JSON number in canonical grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) at the start of b, 0
// if there is none, and whether it has neither fraction nor exponent.
func number(b []byte) (n int, integer bool) {
	if hasLit(b, "-") {
		n++
	}
	switch d := digits(b[n:]); {
	case d == 0:
		return 0, false
	case b[n] == '0': // a leading zero is the whole integer part
		n++
	default:
		n += d
	}
	integer = true
	if hasLit(b[n:], ".") {
		d := digits(b[n+1:])
		if d == 0 {
			return 0, false
		}
		n, integer = n+1+d, false
	}
	if hasLit(b[n:], "e") || hasLit(b[n:], "E") {
		n++
		if hasLit(b[n:], "+") || hasLit(b[n:], "-") {
			n++
		}
		d := digits(b[n:])
		if d == 0 {
			return 0, false
		}
		n, integer = n+d, false
	}
	return n, integer
}

// digits returns the length of the run of decimal digits b starts with.
func digits(b []byte) int {
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	return n
}

// hasLit reports whether b starts with lit.
func hasLit(b []byte, lit string) bool {
	return len(b) >= len(lit) && string(b[:len(lit)]) == lit
}
