package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"agave/internal/suite"
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

// FuzzOpenCheckpoint fuzzes the checkpoint reader, the parse of a journal
// a killed fleet left on disk. The corpus is seeded with a real journal:
// CreateCheckpoint plus one Append per sealed shard of the test plan,
// folded by an Aggregator from synthetic lines, along with its torn and
// hostile variants. The invariants:
//
//  1. OpenCheckpoint, then Restore of every partial into a fresh
//     Aggregator, never panics, whatever the bytes.
//  2. An accepted journal reopens to identical partials: the torn-tail
//     truncation of the first open is a fixed point.
func FuzzOpenCheckpoint(f *testing.F) {
	plan, err := testPlan(f).SuitePlan()
	if err != nil {
		f.Fatal(err)
	}
	const shardSize = 5
	total := plan.Size()
	want := Header{PlanHash: "fuzz", Runs: total, Shards: suite.NumShards(total, shardSize), ShardSize: shardSize}
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	cp, err := CreateCheckpoint(path, want)
	if err != nil {
		f.Fatal(err)
	}
	a := NewAggregator(total, shardSize, want.PlanHash)
	for _, s := range plan.Specs() {
		l, err := syntheticRun(nil, s)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := l.Encode()
		if err != nil {
			f.Fatal(err)
		}
		shard := s.Index / shardSize
		if err := a.Observe(shard, raw, &l); err != nil {
			f.Fatal(err)
		}
		if _, hi := suite.ShardRange(total, shardSize, shard); s.Index == hi-1 {
			p, err := a.FinishShard(shard, -1, "")
			if err != nil {
				f.Fatal(err)
			}
			if err := cp.Append(p); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := cp.Close(); err != nil {
		f.Fatal(err)
	}
	partials, cp, err := OpenCheckpoint(path, want)
	if err != nil || len(partials) != want.Shards {
		f.Fatalf("seed journal reopened to %d of %d shards: %v", len(partials), want.Shards, err)
	}
	cp.Close()
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7]) // torn final record
	first := bytes.IndexByte(journal, '\n') + 1
	f.Add(journal[:first]) // header only
	f.Add(append(journal[:first:first], `{"shard":0,"lines":5,"cells":[null]}`+"\n"...))
	f.Add(bytes.Replace(journal, []byte(`"name":"total_refs"`), []byte(`"name":"zzz"`), 1))

	// One journal path per fuzz process: inputs run one at a time, and a
	// fresh directory per input would dominate the cost of an exec.
	path = filepath.Join(f.TempDir(), "fleet.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		partials, cp, err := OpenCheckpoint(path, want)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		cp.Close()
		again, cp, err := OpenCheckpoint(path, want)
		if err != nil {
			t.Fatalf("accepted journal does not reopen: %v\ninput: %q", err, data)
		}
		cp.Close()
		if !reflect.DeepEqual(partials, again) {
			t.Fatalf("reopen is not a fixed point:\nfirst:  %+v\nsecond: %+v\ninput: %q", partials, again, data)
		}
		a := NewAggregator(total, shardSize, want.PlanHash)
		for _, p := range partials {
			a.Restore(p) // errors are fine; panics are not
		}
	})
}

// FuzzRunWorker fuzzes the worker's stdin: the shard envelope a fleet
// worker subprocess decodes, verifies against its plan hash, and executes.
// The run function is the synthetic engine, so an exec costs microseconds.
// The corpus is seeded with a valid envelope for every shard of the test
// plan, plus trailing garbage, unknown fields, out-of-range shards, a
// wrong hash, and non-envelope bytes. The invariants:
//
//  1. RunWorker never panics, whatever the bytes.
//  2. An accepted envelope emits exactly hi-lo result lines — the specs of
//     its shard, in plan order — then a trailer whose shard, line count and
//     digest match those lines.
func FuzzRunWorker(f *testing.F) {
	const shardSize = 5
	spec := testSpec(f, shardSize)
	hash, err := spec.Hash()
	if err != nil {
		f.Fatal(err)
	}
	plan, err := spec.Plan.SuitePlan()
	if err != nil {
		f.Fatal(err)
	}
	for shard := -1; shard <= suite.NumShards(plan.Size(), shardSize); shard++ {
		env, err := json.Marshal(Envelope{PlanHash: hash, Shard: shard, Spec: *spec})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		if shard == 1 {
			f.Add(append(env[:len(env):len(env)], "\n{} trailing"...))
			f.Add(bytes.Replace(env, []byte(`{"plan_hash"`), []byte(`{"extra":[1,2],"plan_hash"`), 1))
			f.Add(bytes.Replace(env, []byte(hash), []byte("deadbeef"), 1))
			f.Add(env[:len(env)/2])
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		if err := RunWorker(bytes.NewReader(data), &out, syntheticRun); err != nil {
			return // rejected envelope: the only requirement is no panic
		}
		var env Envelope
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			t.Fatalf("accepted envelope does not decode: %v\ninput: %q", err, data)
		}
		plan, err := env.Spec.Plan.SuitePlan()
		if err != nil {
			t.Fatalf("accepted envelope carries no plan: %v\ninput: %q", err, data)
		}
		lo, hi := suite.ShardRange(plan.Size(), env.Spec.ShardSize, env.Shard)
		lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
		if len(lines) != hi-lo+1 {
			t.Fatalf("shard %d [%d,%d) wrote %d lines, want %d plus a trailer\ninput: %q",
				env.Shard, lo, hi, len(lines), hi-lo, data)
		}
		var digest Digest
		for i, raw := range lines[:hi-lo] {
			var l Line
			if err := DecodeLine(raw, &l); err != nil {
				t.Fatalf("line %d does not decode: %v", i, err)
			}
			if l.Index != lo+i {
				t.Fatalf("line %d has index %d, want %d", i, l.Index, lo+i)
			}
			digest.AddLine(raw)
		}
		var trailer Trailer
		if err := json.Unmarshal(lines[hi-lo], &trailer); err != nil {
			t.Fatalf("trailer does not decode: %v", err)
		}
		want := Trailer{Done: true, Shard: env.Shard, Lines: hi - lo, Digest: digest.Hex()}
		if trailer != want {
			t.Fatalf("trailer = %+v, want %+v", trailer, want)
		}
	})
}
