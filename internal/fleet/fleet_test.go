package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"agave/internal/scenario"
	"agave/internal/suite"
)

// TestMain doubles as the fake fleet worker: when the coordinator tests
// re-exec this test binary with AGAVE_FLEET_FAKE_WORKER=1, it behaves as a
// worker subprocess running the synthetic engine instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv("AGAVE_FLEET_FAKE_WORKER") == "1" {
		if err := RunWorker(os.Stdin, os.Stdout, syntheticRun); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// syntheticRun is a pure function of the spec — no simulator, so fleet
// plumbing tests run in microseconds. The float metric exercises the
// fold-order guarantee: summing 0.1-scaled values in different orders
// yields different roundings, so any fold-tree deviation shows up as a
// report mismatch.
func syntheticRun(_ json.RawMessage, s suite.RunSpec) (Line, error) {
	l := Line{
		Index:       s.Index,
		Unit:        s.UnitName(),
		Seed:        s.Seed,
		Ablation:    s.Ablation.Name,
		Fingerprint: uint64(s.Index)*2654435761 + s.Seed,
		Metrics: []Metric{
			{Name: "value", Value: 0.1 * float64(s.Index+1)},
			{Name: "total_refs", Value: float64((s.Index + 1) * 1000)},
		},
	}
	l.SortMetrics()
	return l, nil
}

func testPlan(t testing.TB) WirePlan {
	t.Helper()
	sc, err := scenario.ByName("memory-storm")
	if err != nil {
		t.Fatal(err)
	}
	wp, err := NewWirePlan(suite.Plan{
		Benchmarks:  []string{"alpha", "beta"},
		Scenarios:   []string{"binder-storm"},
		ScenarioSet: []*scenario.Scenario{sc},
		Seeds:       []uint64{1, 2, 3},
		Ablations:   []suite.Ablation{{Name: "base"}, {Name: "nojit", DisableJIT: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

func testSpec(t *testing.T, shardSize int) *Spec {
	t.Helper()
	return &Spec{
		Config:    json.RawMessage(`{"synthetic":true}`),
		Plan:      testPlan(t),
		ShardSize: shardSize,
	}
}

// fakeWorkerCommand re-execs this test binary as a fleet worker.
func fakeWorkerCommand() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "AGAVE_FLEET_FAKE_WORKER=1")
	return cmd, nil
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceReport folds the spec's plan through a plain serial loop over
// the aggregator: no dispatch pool, no shard loop, no checkpoint. The
// executor tests compare Run against it, so they test Run's dispatch
// against code that shares none of it.
func referenceReport(t *testing.T, spec *Spec) *Report {
	t.Helper()
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Plan.SuitePlan()
	if err != nil {
		t.Fatal(err)
	}
	specs := plan.Specs()
	agg := NewAggregator(len(specs), spec.ShardSize, hash)
	for shard := 0; shard < suite.NumShards(len(specs), spec.ShardSize); shard++ {
		lo, hi := suite.ShardRange(len(specs), spec.ShardSize, shard)
		for _, s := range specs[lo:hi] {
			line, err := syntheticRun(spec.Config, s)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := line.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Observe(shard, raw, &line); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := agg.FinishShard(shard, -1, ""); err != nil {
			t.Fatal(err)
		}
	}
	r, err := agg.Report()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// inProcess runs the fleet in this process on the synthetic engine.
func inProcess(t *testing.T, spec *Spec, opts Options) *Report {
	t.Helper()
	opts.Run = syntheticRun
	r, err := Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWirePlanRoundTrip(t *testing.T) {
	wp := testPlan(t)
	plan, err := wp.SuitePlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Size() != 4*3*2 {
		t.Fatalf("plan size = %d, want 24", plan.Size())
	}
	wp2, err := NewWirePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := json.Marshal(wp)
	d2, _ := json.Marshal(wp2)
	if !bytes.Equal(d1, d2) {
		t.Fatalf("wire plan not a fixed point:\n%s\n%s", d1, d2)
	}
}

func TestSpecHashStable(t *testing.T) {
	a := testSpec(t, 5)
	b := testSpec(t, 5)
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("equal specs hash differently: %s vs %s", ha, hb)
	}
	c := testSpec(t, 6)
	hc, _ := c.Hash()
	if hc == ha {
		t.Fatal("different shard size did not change spec hash")
	}
}

func TestRunWorkerProtocol(t *testing.T) {
	spec := testSpec(t, 5)
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(Envelope{PlanHash: hash, Shard: 1, Spec: *spec})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunWorker(bytes.NewReader(env), &out, syntheticRun); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
	// Shard 1 of a 24-spec plan at size 5 covers specs [5,10): 5 lines + trailer.
	if len(lines) != 6 {
		t.Fatalf("worker wrote %d lines, want 6", len(lines))
	}
	var digest Digest
	for i, raw := range lines[:5] {
		var l Line
		if err := DecodeLine(raw, &l); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if l.Index != 5+i {
			t.Fatalf("line %d has index %d, want %d", i, l.Index, 5+i)
		}
		digest.AddLine(raw)
	}
	var trailer Trailer
	if err := json.Unmarshal(lines[5], &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Shard != 1 || trailer.Lines != 5 {
		t.Fatalf("trailer = %+v", trailer)
	}
	if trailer.Digest != digest.Hex() {
		t.Fatalf("trailer digest %s != folded %s", trailer.Digest, digest.Hex())
	}
	// A wrong plan hash must be refused before any spec runs.
	env, _ = json.Marshal(Envelope{PlanHash: "deadbeef", Shard: 0, Spec: *spec})
	out.Reset()
	if err := RunWorker(bytes.NewReader(env), &out, syntheticRun); err == nil || out.Len() != 0 {
		t.Fatalf("mismatched plan hash accepted (err=%v, wrote %d bytes)", err, out.Len())
	}
}

// TestCoordinatorMatchesSerial is the package-level equivalence conformance
// check: the fleet — in-process or in subprocesses, at any worker count —
// must reproduce the plain serial fold byte for byte: fingerprint, float
// aggregates, everything.
func TestCoordinatorMatchesSerial(t *testing.T) {
	spec := testSpec(t, 5)
	serial := referenceReport(t, spec)
	want := reportJSON(t, serial)
	if serial.Runs != 24 || serial.Shards != 5 {
		t.Fatalf("serial report: runs %d shards %d", serial.Runs, serial.Shards)
	}
	for _, workers := range []int{0, 2} {
		got := inProcess(t, spec, Options{Workers: workers})
		if data := reportJSON(t, got); !bytes.Equal(data, want) {
			t.Errorf("in-process workers=%d report differs from serial:\n%s\nwant:\n%s", workers, data, want)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := Run(spec, Options{Workers: workers, Command: fakeWorkerCommand})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if data := reportJSON(t, got); !bytes.Equal(data, want) {
			t.Errorf("workers=%d report differs from serial:\n%s\nwant:\n%s", workers, data, want)
		}
	}
}

// TestRunRejectsNonPositiveShardSize: a plan sliced into zero-size shards
// has no shards at all, so Run must refuse it rather than report zero runs.
func TestRunRejectsNonPositiveShardSize(t *testing.T) {
	for _, size := range []int{0, -3} {
		r, err := Run(testSpec(t, size), Options{Workers: 1, Command: fakeWorkerCommand})
		if err == nil || !strings.Contains(err.Error(), "shard size must be positive") {
			t.Fatalf("shard size %d: report %+v, err %v", size, r, err)
		}
	}
}

// TestShardSizeChangesReportNotFingerprint pins the two halves of the
// determinism contract: the fingerprint is geometry-free (any shard size
// yields the same digest), while the full report is pinned only per shard
// size (the header records it).
func TestShardSizeChangesReportNotFingerprint(t *testing.T) {
	r5 := inProcess(t, testSpec(t, 5), Options{})
	r7 := inProcess(t, testSpec(t, 7), Options{})
	if r5.Fingerprint != r7.Fingerprint {
		t.Fatalf("fingerprint depends on shard size: %s vs %s", r5.Fingerprint, r7.Fingerprint)
	}
	if r5.Shards == r7.Shards {
		t.Fatal("shard counts unexpectedly equal")
	}
}

func TestSerialCheckpointResume(t *testing.T) {
	spec := testSpec(t, 5)
	uninterrupted := referenceReport(t, spec)
	cp := filepath.Join(t.TempDir(), "fleet.ckpt")
	// First attempt dies at spec 12 (shard 2), after shards 0 and 1
	// journaled.
	bomb := func(cfg json.RawMessage, s suite.RunSpec) (Line, error) {
		if s.Index == 12 {
			return Line{}, fmt.Errorf("injected crash at spec %d", s.Index)
		}
		return syntheticRun(cfg, s)
	}
	if _, err := Run(spec, Options{Checkpoint: cp, Run: bomb}); err == nil || !strings.Contains(err.Error(), "fleet: shard 2") {
		t.Fatalf("interrupted run did not fail at shard 2: %v", err)
	}
	var progress bytes.Buffer
	resumed := inProcess(t, spec, Options{Checkpoint: cp, Progress: &progress})
	if !bytes.Equal(reportJSON(t, resumed), reportJSON(t, uninterrupted)) {
		t.Fatalf("resumed report differs:\n%s\nwant:\n%s", reportJSON(t, resumed), reportJSON(t, uninterrupted))
	}
	if !bytes.Contains(progress.Bytes(), []byte("resumed 2 of 5 shards")) {
		t.Fatalf("progress did not note the resume: %q", progress.String())
	}
}

// TestCoordinatorWorkerCrashResume kills the first worker subprocess
// mid-fleet, then resumes from the checkpoint and requires the final report
// to match an uninterrupted run exactly.
func TestCoordinatorWorkerCrashResume(t *testing.T) {
	spec := testSpec(t, 5)
	uninterrupted := referenceReport(t, spec)
	dir := t.TempDir()
	cp := filepath.Join(dir, "fleet.ckpt")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The first invocation to win the mkdir race SIGKILLs itself —
	// simulating a worker dying mid-shard — and every other invocation
	// execs the real fake worker.
	script := fmt.Sprintf(`if mkdir %q 2>/dev/null; then kill -KILL $$; else exec %q; fi`,
		filepath.Join(dir, "crashed"), exe)
	sabotage := func() (*exec.Cmd, error) {
		cmd := exec.Command("/bin/sh", "-c", script)
		cmd.Env = append(os.Environ(), "AGAVE_FLEET_FAKE_WORKER=1")
		return cmd, nil
	}
	if _, err := Run(spec, Options{Workers: 2, Command: sabotage, Checkpoint: cp}); err == nil {
		t.Fatal("fleet with crashing worker did not fail")
	}
	resumed, err := Run(spec, Options{Workers: 2, Command: fakeWorkerCommand, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, resumed), reportJSON(t, uninterrupted)) {
		t.Fatalf("resumed fleet report differs:\n%s\nwant:\n%s", reportJSON(t, resumed), reportJSON(t, uninterrupted))
	}
}

// TestCoordinatorFailurePaths pins that worker misbehavior surfaces the
// shard id and the worker's stderr in the coordinator error, without
// hanging.
func TestCoordinatorFailurePaths(t *testing.T) {
	spec := testSpec(t, 5)
	cases := []struct {
		name   string
		script string
		want   []string
	}{
		{
			name:   "nonzero exit",
			script: `cat >/dev/null; echo boom >&2; exit 3`,
			want:   []string{"fleet: shard 0", "exit status 3", "boom"},
		},
		{
			name:   "malformed json",
			script: `cat >/dev/null; echo not-json`,
			want:   []string{"fleet: shard 0", "malformed result line"},
		},
		{
			name:   "silent exit",
			script: `cat >/dev/null; exit 0`,
			want:   []string{"fleet: shard 0", "without a trailer"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmdFn := func() (*exec.Cmd, error) {
				return exec.Command("/bin/sh", "-c", tc.script), nil
			}
			_, err := Run(spec, Options{Workers: 1, Command: cmdFn})
			if err == nil {
				t.Fatal("fleet did not fail")
			}
			for _, want := range tc.want {
				if !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestCoordinatorTrailingGarbage pins that output after the trailer is an
// error: a worker that keeps writing past its trailer is corrupt even if
// the trailer itself verified.
func TestCoordinatorTrailingGarbage(t *testing.T) {
	spec := testSpec(t, 5)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The real worker runs first (inheriting sh's stdin pipe), then sh
	// appends garbage to the same stdout.
	cmdFn := func() (*exec.Cmd, error) {
		cmd := exec.Command("/bin/sh", "-c", fmt.Sprintf("%q; echo garbage-after-trailer", exe))
		cmd.Env = append(os.Environ(), "AGAVE_FLEET_FAKE_WORKER=1")
		return cmd, nil
	}
	_, err = Run(spec, Options{Workers: 1, Command: cmdFn})
	if err == nil {
		t.Fatal("fleet accepted trailing garbage")
	}
	for _, want := range []string{"fleet: shard 0", "trailing garbage"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestReportExcludesExecutionDetails(t *testing.T) {
	r := inProcess(t, testSpec(t, 5), Options{})
	var decoded map[string]any
	if err := json.Unmarshal(reportJSON(t, r), &decoded); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"plan_hash": true, "runs": true, "shards": true,
		"shard_size": true, "fingerprint": true, "cells": true,
	}
	keys := make([]string, 0, len(decoded))
	for k := range decoded {
		keys = append(keys, k) //agave:allow maporder keys only checked for set membership below, order-free
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("report leaks execution-dependent field %q", k)
		}
	}
	if len(decoded) != len(want) {
		t.Errorf("report has %d fields, want %d", len(decoded), len(want))
	}
}
