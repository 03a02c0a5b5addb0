package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"agave/internal/scenario"
)

// agaveBin is the CLI under test, built once by TestMain.
var agaveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "agavebench-test")
	if err != nil {
		panic(err)
	}
	agaveBin = filepath.Join(dir, "agave")
	if out, err := exec.Command("go", "build", "-o", agaveBin, "agave/cmd/agave").CombinedOutput(); err != nil {
		panic("build agave: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSelfTimes checks self time on a hand-built tree: the root's children
// overlap each other and one runs past the root's end, and two of them have
// children of their own.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 25},
		{ID: 5, Parent: 2, Name: "b1", Start: 50, End: 55},
		{ID: 6, Parent: 2, Name: "b2", Start: 52, End: 58}, // overlaps b1
	}
	// root: 100 minus [10,60) and [90,100); b: 30 minus [50,58).
	want := []int64{40, 20, 22, 30, 10, 5, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("pass", "", 0)
	a := rec.begin("core.Run", "x", rec.trace())
	inner := rec.begin("inner", "", 0)
	rec.end(inner)
	rec.end(a)
	b := rec.begin("core.Run", "y", rec.trace())
	rec.end(b)
	rec.end(root)
	s := rec.spans
	if s[a].Parent != root || s[inner].Parent != a || s[b].Parent != root {
		t.Fatalf("parents: %+v", s)
	}
	if s[inner].Trace != s[a].Trace || s[a].Trace == s[b].Trace || s[root].Trace != 0 {
		t.Fatalf("trace ids: %+v", s)
	}
	var off *recorder
	if id := off.begin("x", "", off.trace()); id != -1 {
		t.Fatalf("nil recorder recorded span %d", id)
	}
	off.end(-1)
}

// TestQuartiles pins agreement with Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, med, q3 := quartiles(c.in)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
		}
	}
}

// smallWorkloads are the three workloads at reduced size.
func smallWorkloads() []workload {
	return []workload{
		&paperSuite{durationMS: 100, warmupMS: 50, benches: []string{"countdown.main", "401.bzip2"}},
		&denseSession{gen: scenario.GenConfig{Apps: 4, Events: 16, Pressure: 1, Inputs: 8},
			sessions: 2, durationMS: 150, warmupMS: 100},
		&fleetChaos{sessions: 4, gen: scenario.GenConfig{Apps: 3, Pressure: 1, Inputs: 4, Faults: 1},
			bench: "vlc.mp3.view.bkg", workers: min(2, runtime.NumCPU()), shardSize: 2,
			durationMS: 100, warmupMS: 100},
	}
}

func testOptions(t *testing.T, agave string) options {
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	// Seed 7 is not pinned: the reduced workloads are held to their
	// first passes and in-process references.
	return options{agave: agave, out: t.TempDir(), commit: "test", seed: 7,
		seconds: time.Nanosecond, pins: pins}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func checkMetrics(t *testing.T, what string, r *result, want map[string]string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, r.Correct, r.Attempted, r.Failed)
	}
	for name, unit := range want {
		m, ok := r.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v (present %v), want unit %s", what, name, m, ok, unit)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(r.Metrics), len(want))
	}
}

// TestSmoke runs one cycle of every workload at reduced size in both modes
// and checks every metric BENCHMARK.json names prints with its unit.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	o := testOptions(t, agaveBin)
	all := smallWorkloads()
	for _, w := range all {
		r, err := e2eRun(w, o, io.Discard)
		if err != nil {
			t.Fatalf("%s e2e: %v", w.name(), err)
		}
		checkMetrics(t, w.name()+" trace=0", r, e2e)
		r, err = traceRun(w, all, o, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name(), err)
		}
		checkMetrics(t, w.name()+" trace=1", r, layer)
		if _, err := os.Stat(filepath.Join(o.out, "trace-"+w.name()+".json")); err != nil {
			t.Errorf("%s: span file: %v", w.name(), err)
		}
	}
}

// TestCorruptedStdoutFails feeds passes whose stdout was altered on the way
// out of agave: every pass must count as failed.
func TestCorruptedStdoutFails(t *testing.T) {
	wrapper := filepath.Join(t.TempDir(), "agave")
	script := "#!/bin/sh\n'" + agaveBin + "' \"$@\" | sed 's/[0-9]/7/g'\n"
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	w := smallWorkloads()[1]
	r, err := e2eRun(w, testOptions(t, wrapper), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 || float64(r.Failed)/float64(r.Attempted) <= 0 {
		t.Fatalf("corrupted stdout passed: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}

	// A stdout whose only check is its digest fails on the digest.
	digests := []string{digest([]byte("figure 1\n"))}
	if err := checkDigest(digests, 0, []byte("figure 7\n")); err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("digest mismatch not reported: %v", err)
	}
}
