package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
)

// Manifest decoding. Every cached re-run of a grid, every resumed figure
// suite and every new daemon reads one manifest per grid point, so the
// read path decodes the manifest shape in one pass over the bytes instead
// of through encoding/json's reflection-driven decoder. The pass accepts
// only the subset of JSON that json.MarshalIndent writes for a
// storedResult: canonical numbers, escape-free ASCII strings, the
// schema's own keys with their exact case. At the first byte outside that
// subset the input goes to json.Unmarshal whole, so parseManifest returns
// what encoding/json returns on every input (FuzzParseManifest checks this
// differentially against json.Unmarshal).

// manifestField is one field of the manifest schema as the fast pass
// decodes it: its index in the enclosing struct, its kind, and for a
// nested struct its own fields.
type manifestField struct {
	index int
	kind  reflect.Kind
	sub   map[string]manifestField
}

// manifestSchema is derived from storedResult once, so a counter added to
// sim.Result is decoded without any list to update.
var manifestSchema = schemaOf(reflect.TypeOf(storedResult{}))

// schemaOf maps each key encoding/json would write for t to its field.
// Fields the fast pass does not decode — a json tag, an embedded struct,
// a kind sim.Result does not use — are left out, so a key naming one
// sends the input to the fallback (and TestFastPathAcceptsWrittenManifests
// fails until the pass learns it).
func schemaOf(t reflect.Type) map[string]manifestField {
	fields := make(map[string]manifestField, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() || sf.Anonymous || sf.Tag.Get("json") != "" {
			continue
		}
		f := manifestField{index: i, kind: sf.Type.Kind()}
		switch f.kind {
		case reflect.Struct:
			f.sub = schemaOf(sf.Type)
		case reflect.String, reflect.Bool, reflect.Float64, reflect.Int64, reflect.Uint64:
		default:
			continue
		}
		fields[sf.Name] = f
	}
	return fields
}

// parseManifest decodes and validates one manifest into *sr, which the
// caller allocates (a memo entry holds it, so the decode adds no
// allocation of its own). Truncated, corrupt or identity-less bytes error
// and leave *sr zero — the caller treats any error as "job not done",
// never as a partial result.
func parseManifest(data []byte, sr *storedResult) error {
	d := manifestDecoder{data: data}
	if !d.document(reflect.ValueOf(sr).Elem()) {
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

// manifestDecoder is the fast pass's cursor. Each method reports false as
// soon as the bytes leave the subset it decodes, leaving the destination
// partly written; parseManifest then discards it.
type manifestDecoder struct {
	data []byte
	pos  int
}

// document decodes one top-level object into v, followed by nothing but
// whitespace.
func (d *manifestDecoder) document(v reflect.Value) bool {
	d.space()
	if !d.object(v, manifestSchema) {
		return false
	}
	d.space()
	return d.pos == len(d.data)
}

// object decodes a JSON object into the struct v. A repeated key is
// decoded again over the first, as encoding/json does: a scalar takes the
// last value and a nested object merges into the struct.
func (d *manifestDecoder) object(v reflect.Value, fields map[string]manifestField) bool {
	if !d.byte('{') {
		return false
	}
	d.space()
	if d.byte('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok {
			return false
		}
		f, ok := fields[string(key)]
		if !ok {
			return false
		}
		d.space()
		if !d.byte(':') {
			return false
		}
		d.space()
		if !d.value(v.Field(f.index), f) {
			return false
		}
		d.space()
		if d.byte('}') {
			return true
		}
		if !d.byte(',') {
			return false
		}
		d.space()
	}
}

// value decodes one field's value into v.
func (d *manifestDecoder) value(v reflect.Value, f manifestField) bool {
	switch f.kind {
	case reflect.Struct:
		return d.object(v, f.sub)
	case reflect.String:
		s, ok := d.str()
		if ok {
			v.SetString(string(s))
		}
		return ok
	case reflect.Bool:
		for _, lit := range [...]string{"false", "true"} {
			if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
				d.pos += len(lit)
				v.SetBool(lit == "true")
				return true
			}
		}
		return false
	}
	lit, integer := d.number()
	if lit == nil {
		return false
	}
	switch f.kind {
	case reflect.Float64:
		x, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return false
		}
		v.SetFloat(x)
	case reflect.Uint64:
		x, err := strconv.ParseUint(string(lit), 10, 64)
		if !integer || err != nil {
			return false
		}
		v.SetUint(x)
	case reflect.Int64:
		x, err := strconv.ParseInt(string(lit), 10, 64)
		if !integer || err != nil {
			return false
		}
		v.SetInt(x)
	}
	return true
}

// str returns the contents of a string literal with no escapes and only
// printable ASCII; anything else (an escape, a control byte, UTF-8 that
// encoding/json would validate or replace) reports false.
func (d *manifestDecoder) str() ([]byte, bool) {
	if !d.byte('"') {
		return nil, false
	}
	start := d.pos
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number returns the literal of a JSON number in canonical grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), nil if there is none,
// and whether it has neither fraction nor exponent.
func (d *manifestDecoder) number() (lit []byte, integer bool) {
	start := d.pos
	d.byte('-')
	// A leading zero is the whole integer part.
	if !d.byte('0') && d.digits() == 0 {
		return nil, false
	}
	integer = true
	if d.byte('.') {
		if d.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	if d.byte('e') || d.byte('E') {
		if !d.byte('+') {
			d.byte('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
		integer = false
	}
	return d.data[start:d.pos], integer
}

// digits skips a run of decimal digits and returns its length.
func (d *manifestDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// byte consumes c if it is next.
func (d *manifestDecoder) byte(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *manifestDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}
