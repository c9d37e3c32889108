package sweepd

import (
	"bytes"
	"errors"
	"testing"
)

// requestFields is every field a RequestError may name: the decoded body
// as a whole and each JSON field admission can reject.
var requestFields = map[string]bool{
	"body": true, "sweep": true, "benches": true, "instructions": true,
	"warmup": true, "warmup_fidelity": true, "max_jobs": true,
}

// FuzzSweepRequest feeds arbitrary bytes through admission: the POST body
// decode, normalize, then planJobs. Nothing may panic; every rejection is
// a *RequestError on a known field; every admitted request passes
// sim.Config.Validate on each planned job and yields unique job names.
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`{"sweep":"nbits","benches":["swim"],"instructions":100000,"warmup":200000,"tenant":"alice"}`))
	f.Add([]byte(`{"sweep":"nbits","benches":["swim"],"instructions":1,"warmup":18446744073709551615}`))
	f.Add([]byte(`{"sweep":"branchpred","benches":["mcf"]}`))
	f.Add([]byte(`{"sweep":"size","benches":["swim",""],"warmup_fidelity":"fast"}`))
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
		jobs, names, err := planJobs(req)
		if err != nil {
			reject("planJobs", err)
			return
		}
		seen := make(map[string]bool, len(names))
		for i, j := range jobs {
			if err := j.Config.Validate(); err != nil {
				t.Fatalf("admitted job %s/%s fails validation: %v", j.Bench, j.Factory.Name, err)
			}
			if seen[names[i]] {
				t.Fatalf("duplicate job name %s", names[i])
			}
			seen[names[i]] = true
		}
	})
}
