package sweepd

import (
	"bytes"
	"errors"
	"testing"

	"tagprefetch/internal/experiment"
)

// requestFields is every field a RequestError may name: the decoded body
// as a whole and each JSON field admission can reject.
var requestFields = map[string]bool{
	"body": true, "sweep": true, "benches": true, "instructions": true,
	"warmup": true, "warmup_fidelity": true, "max_jobs": true,
}

// FuzzSweepRequest feeds arbitrary bytes through admission: the POST body
// decode, normalize, then the one-pass answer over an empty result store
// under the default job budget. Nothing may panic; every rejection is a
// *RequestError on a known field; every admitted request fits its budget,
// passes sim.Config.Validate on each planned job, yields unique job names
// and, with nothing cached, misses every point and renders a body only
// for a row that plans no job (Table 1).
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"sweep":"nbits","benches":["swim"],"instructions":100000,"warmup":200000,"tenant":"alice"}`))
	f.Add([]byte(`{"sweep":"nbits","benches":["swim"],"instructions":1,"warmup":18446744073709551615}`))
	f.Add([]byte(`{"sweep":"branchpred","benches":["mcf"]}`))
	f.Add([]byte(`{"sweep":"size","benches":["swim",""],"warmup_fidelity":"fast"}`))
	f.Add([]byte(`{"sweep":"table1"}`))
	f.Add([]byte(`{"sweep":"coverage","benches":["mcf","swim"]}`))
	for _, body := range trailingBodies {
		f.Add([]byte(body))
	}
	store, err := experiment.NewResultStore(f.TempDir(), true)
	if err != nil {
		f.Fatal(err)
	}
	admission := Config{MaxJobsPerSweep: 4096} // the daemon's default
	f.Fuzz(func(t *testing.T, body []byte) {
		reject := func(stage string, err error) {
			var re *RequestError
			if !errors.As(err, &re) || !requestFields[re.Field] {
				t.Fatalf("%s: rejection %v is not a RequestError on a known field", stage, err)
			}
		}
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			reject("decode", err)
			return
		}
		if err := normalize(&req, ""); err != nil {
			reject("normalize", err)
			return
		}
		g, body, err := answer(store.LookupJob, req, admission.budget(req))
		if err != nil {
			reject("answer", err)
			return
		}
		if len(g.Jobs) > admission.budget(req) {
			t.Fatalf("admitted %d jobs over a budget of %d", len(g.Jobs), admission.budget(req))
		}
		if len(g.Missing) != len(g.Jobs) || (body != nil) != (len(g.Jobs) == 0) {
			t.Fatalf("empty store: %d of %d points missed, body %q", len(g.Missing), len(g.Jobs), body)
		}
		seen := make(map[string]bool, len(g.Names))
		for i, j := range g.Jobs {
			if err := j.Config.Validate(); err != nil {
				t.Fatalf("admitted job %s/%s fails validation: %v", j.Bench, j.Factory.Name, err)
			}
			if seen[g.Names[i]] {
				t.Fatalf("duplicate job name %s", g.Names[i])
			}
			seen[g.Names[i]] = true
		}
	})
}
