package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"tagprefetch/internal/sim"
)

// referenceParse is parseManifest's contract written with encoding/json
// alone: the decode the fast pass must agree with on every input.
func referenceParse(data []byte) (storedResult, bool) {
	var sr storedResult
	if err := json.Unmarshal(data, &sr); err != nil || sr.Bench == "" || sr.Factory == "" {
		return storedResult{}, false
	}
	return sr, true
}

// schemeManifests returns the manifest Save writes for one small run of
// each sim.Schemes row, trailing newline included.
func schemeManifests(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, s := range sim.Schemes {
		f := s.Factory()
		res := sim.MustRun("mcf", f, sim.Config{Instructions: 2_000, Warmup: 2_000, Seed: 1})
		data, err := json.MarshalIndent(storedResult{Bench: "mcf", Factory: f.Name, Result: res}, "", "  ")
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, append(data, '\n'))
	}
	return out
}

// TestFastPathAcceptsWrittenManifests: every manifest Save writes
// matches the template itself, not the encoding/json fallback, and
// decodes to what encoding/json reads from it.
func TestFastPathAcceptsWrittenManifests(t *testing.T) {
	for _, data := range schemeManifests(t) {
		var sr storedResult
		if !manifestLayout.match(data, reflect.ValueOf(&sr).Elem()) {
			t.Fatalf("template declined a manifest Save writes:\n%s", data)
		}
		if ref, _ := referenceParse(data); sr != ref {
			t.Errorf("template decoded\n%+v\nencoding/json decodes\n%+v", sr, ref)
		}
	}
}

// TestManifestWithLSQStallReads: a manifest written while sim.Result
// still carried the CPU's DispatchStallLSQ counter (always 0) misses the
// template, and the encoding/json fallback reads it to the Result the
// same job gives now.
func TestManifestWithLSQStallReads(t *testing.T) {
	data, err := os.ReadFile("testdata/manifest-lsq.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"DispatchStallLSQ": 0`)) {
		t.Fatal("fixture lacks its DispatchStallLSQ key")
	}
	if manifestLayout.match(data, reflect.ValueOf(&storedResult{}).Elem()) {
		t.Fatal("the template matched a manifest with a field sim.Result no longer has")
	}
	var sr storedResult
	if err := parseManifest(data, &sr); err != nil {
		t.Fatal(err)
	}
	f := sim.TCP8K()
	want := storedResult{Bench: "mcf", Factory: f.Name,
		Result: sim.MustRun("mcf", f, sim.Config{Instructions: 2_000, Warmup: 2_000, Seed: 1})}
	if sr != want {
		t.Errorf("old manifest decoded\n%+v\nthe same job runs to\n%+v", sr, want)
	}
}

// FuzzParseManifest checks parseManifest differentially against
// referenceParse on arbitrary bytes — truncated files from torn writes, a
// concurrent writer's half-visible rename, plain corruption, and JSON the
// fast pass must hand to encoding/json: both return the same record, or
// both reject the input, and parseManifest never panics.
func FuzzParseManifest(f *testing.F) {
	written := schemeManifests(f)
	for _, data := range written {
		f.Add(data)
	}
	good := written[1]
	f.Add(good[:len(good)/2])
	for _, edit := range [][2]string{
		{`"Factory": "tcp-8K"`, `"Factory": "tcp\u002d8K"`},                  // escaped factory name
		{`"Factory": "tcp-8K"`, `"Factory": "tcp\/8K"`},                      // escaped solidus
		{`"Bench": "mcf"`, `"bench": "mcf"`},                                 // key in another case
		{`"Bench": "mcf"`, `"Bench": "swim", "Bench": "mcf"`},                // duplicate key
		{`"CPU": {`, `"CPU": {"Loads": 9}, "CPU": {`},                        // duplicate object merges
		{`"Instructions": 2000`, `"Instructions": 02000`},                    // leading zero
		{`"Instructions": 2000`, `"Instructions": 2e3`},                      // exponent in a uint field
		{`"Instructions": 2000`, `"Instructions": -2000`},                    // sign in a uint field
		{`"Cycles": `, `"Cycles": -0, "Cycles": `},                           // negative zero in an int field
		{`"Baseline": false`, `"Baseline": false, "Extra": [1, {"a": [2]}]`}, // unknown key holding an array
		{`"Baseline": false`, `"Baseline": null`},                            // null
		{`"Bench": "mcf"`, `"Bench": "m\u00e9f"`},                            // escaped non-ASCII
		{`"Bench": "mcf"`, "\"Bench\": \"m\xc3\xa9f\""},                      // raw UTF-8
		{`"Bench": "mcf"`, "\"Bench\": \"m\xffcf\""},                         // invalid UTF-8
	} {
		if !bytes.Contains(good, []byte(edit[0])) {
			f.Fatalf("seed edit %q does not apply to the manifest", edit[0])
		}
		f.Add(bytes.Replace(good, []byte(edit[0]), []byte(edit[1]), 1))
	}
	// Valid JSON off Save's layout: each must miss the template and take
	// the fallback.
	indented := func(data []byte, indent string) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, data, "", indent); err != nil {
			f.Fatal(err)
		}
		return out.Bytes()
	}
	for _, data := range [][]byte{
		bytes.Replace(good, []byte("\"Bench\": \"mcf\",\n  \"Factory\": \"tcp-8K\""),
			[]byte("\"Factory\": \"tcp-8K\",\n  \"Bench\": \"mcf\""), 1), // keys reordered
		indented(good, "\t"), // tab indentation
		bytes.ReplaceAll(good, []byte("\n"), []byte("\r\n")), // CRLF line ends
		good[:len(good)-1],                    // no trailing newline
		append(bytes.Clone(good), " \n\t"...), // trailing whitespace
		append(bytes.Clone(good[:len(good)-3]), ",\n  \"Bench\": \"swim\"\n}\n"...), // duplicate key after the last one
		append(bytes.Clone(good[:len(good)-3]), ",\n  \"Extra\": 1\n}\n"...),        // extra unknown key
	} {
		if ok := manifestLayout.match(data, reflect.ValueOf(&storedResult{}).Elem()); ok {
			f.Fatalf("seed off Save's layout matched the template:\n%s", data)
		}
		if _, ok := referenceParse(data); !ok {
			f.Fatalf("seed off Save's layout is not a valid manifest:\n%s", data)
		}
		f.Add(data)
	}
	f.Add(append(bytes.Clone(good), "xyz"...)) // trailing garbage
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Bench":"swim"}`))
	f.Add([]byte(`{"Factory":"tcp-8K"}`))
	f.Add([]byte(`{"Bench":"","Factory":""}`))
	f.Add([]byte(`{"Bench":"swim","Factory":"tcp-8K","Result":{"CPU":{"IPC":1e400}}}`))
	f.Add([]byte(`{"Bench":"swim","Factory":"tcp-8K","Result":{"CPU":{"IPC":-0.5E-3}}}`))
	f.Add([]byte(`{"Bench":"swim","Factory":"tcp-8K","Result":{"CPU":{"Cycles":99999999999999999999}}}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte("\xff\x00garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sr storedResult
		err := parseManifest(data, &sr)
		ref, ok := referenceParse(data)
		if (err == nil) != ok {
			t.Fatalf("parseManifest error %v, encoding/json accepts: %v", err, ok)
		}
		if sr != ref {
			t.Fatalf("parseManifest decoded\n%+v\nencoding/json decodes\n%+v", sr, ref)
		}
	})
}
