package fleet

import (
	"reflect"
	"testing"
)

// FuzzDecodeLine fuzzes the result-line decoder, the coordinator's parse of
// worker stdout. The corpus is seeded with the canonical encodings of the
// lines the synthetic engine produces for every spec of the test plan, plus
// hostile shapes. The invariants:
//
//  1. DecodeLine never panics, whatever the bytes.
//  2. An accepted line re-encodes to bytes DecodeLine parses back to an
//     equal Line: the canonical form is a fixed point.
//  3. A reused dst never keeps metrics from the previous line: decoding
//     into a dst that last held a metric-carrying line yields exactly what
//     decoding into a fresh Line does.
func FuzzDecodeLine(f *testing.F) {
	plan, err := testPlan(f).SuitePlan()
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range plan.Specs() {
		l, err := syntheticRun(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := l.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"index":3,"metrics":[{"k":"value"}]}`))
	f.Add([]byte(`{"index":1,"metrics":null}`))
	f.Add([]byte(`{"index":1,"metrics":[]}`))
	f.Add([]byte(`{"index":-1,"seed":1e3,"unit":"\u0000\xff","INDEX":2}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))

	prev := []byte(`{"index":9,"unit":"u","metrics":[{"k":"a","v":1.5},{"k":"b","v":-2},{"k":"c","v":3}]}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh Line
		if err := DecodeLine(data, &fresh); err != nil {
			return // rejected input: the only requirement is no panic
		}
		raw, err := fresh.Encode()
		if err != nil {
			t.Fatalf("accepted line does not re-encode: %v\ninput: %q", err, data)
		}
		var again Line
		if err := DecodeLine(raw, &again); err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\nencoding: %s", err, raw)
		}
		if !reflect.DeepEqual(fresh, again) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %+v\nsecond: %+v\nencoding: %s", fresh, again, raw)
		}

		var reused Line
		if err := DecodeLine(prev, &reused); err != nil {
			t.Fatal(err)
		}
		if err := DecodeLine(data, &reused); err != nil {
			t.Fatalf("reused dst rejects what a fresh one accepts: %v\ninput: %q", err, data)
		}
		if len(reused.Metrics) == 0 && len(fresh.Metrics) == 0 {
			reused.Metrics, fresh.Metrics = nil, nil // retained capacity, not content
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("reused dst differs from a fresh decode:\nfresh:  %+v\nreused: %+v\ninput: %q", fresh, reused, data)
		}
	})
}
