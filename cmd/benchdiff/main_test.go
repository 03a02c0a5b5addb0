package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: agave
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSuiteSerial-8        	       1	1200000000 ns/op	       14.00 workers	     900.5 Mticks/s	  524288 B/op	    1024 allocs/op
BenchmarkSuiteParallel-8      	       1	 300000000 ns/op	        8.000 workers	    3600.0 Mticks/s	  524288 B/op	    1024 allocs/op
BenchmarkScenario/social-burst-8 	       1	 236000000 ns/op	        26.00 processes	 143067000 total_refs
PASS
ok  	agave	2.101s
`

func TestParseBench(t *testing.T) {
	snap, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	b := snap.Benchmarks[0]
	if b.Name != "SuiteSerial" {
		t.Fatalf("name = %q (GOMAXPROCS suffix not stripped?)", b.Name)
	}
	if b.NsPerOp != 1.2e9 || b.BytesPerOp != 524288 || b.AllocsOp != 1024 {
		t.Fatalf("SuiteSerial parsed wrong: %+v", b)
	}
	if b.Metrics["Mticks/s"] != 900.5 {
		t.Fatalf("custom metric lost: %+v", b.Metrics)
	}
	sub := snap.Benchmarks[2]
	if sub.Name != "Scenario/social-burst" || sub.Metrics["total_refs"] != 143067000 {
		t.Fatalf("sub-benchmark parsed wrong: %+v", sub)
	}

	// Non-finite values parse as floats but must fail the parse, naming
	// the benchmark: a NaN compares false against every threshold and
	// would pass the gate.
	for _, in := range []string{
		"BenchmarkSuiteSerial-2 13 NaN ns/op 12811862 B/op 14042 allocs/op\n",
		"BenchmarkSuiteSerial-2 13 1 ns/op 12811862 B/op NaN allocs/op\n",
		"BenchmarkSuiteSerial-2 13 1 ns/op -Inf workers\n",
		"BenchmarkSuiteSerial-2 1 1e308 ns/op\nBenchmarkSuiteSerial-2 1 1e308 ns/op\n", // the sum overflows
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "SuiteSerial") {
			t.Errorf("non-finite input %q: err = %v, want a parse error naming SuiteSerial", in, err)
		}
		if code, _, _ := invoke(t, in, "-baseline", "/no/such/file.json"); code != 2 {
			t.Errorf("non-finite input %q: exit %d, want 2", in, code)
		}
	}
}

// FuzzParseBench fuzzes the bench-output parser, the gate's reader of
// external text. Invariants: parseBench never panics, and every snapshot it
// accepts holds only finite values and encodes to JSON.
func FuzzParseBench(f *testing.F) {
	f.Add(sampleOutput)
	f.Add("BenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 300 ns/op\n")
	f.Add("BenchmarkSuiteSerial-2 13 NaN ns/op 12811862 B/op 14042 allocs/op\n")
	f.Add("BenchmarkY 5 1e308 ns/op 1e308 B/op\nBenchmarkY 5 1e308 ns/op 1e308 B/op\n")
	f.Add("BenchmarkZ-8 0x10 1 ns/op\nBenchmark 1 2 3\n")
	f.Fuzz(func(t *testing.T, in string) {
		snap, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, b := range snap.Benchmarks {
			vals := []float64{b.NsPerOp, b.BytesPerOp, b.AllocsOp}
			for _, v := range b.Metrics {
				vals = append(vals, v)
			}
			for _, v := range vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted a non-finite value: %+v\ninput: %q", b, in)
				}
			}
		}
		if _, err := json.Marshal(snap); err != nil {
			t.Fatalf("accepted snapshot does not encode: %v\ninput: %q", err, in)
		}
	})
}

func TestParseBenchAveragesRepeatedCounts(t *testing.T) {
	input := "BenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 300 ns/op\n"
	snap, err := parseBench(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 1 || math.Abs(snap.Benchmarks[0].NsPerOp-200) > 1e-9 {
		t.Fatalf("repeated counts not averaged: %+v", snap.Benchmarks)
	}
	if snap.Benchmarks[0].Iterations != 1 {
		t.Fatalf("iterations summed across counts, not averaged: %+v", snap.Benchmarks[0])
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok agave 1s\n")); err == nil {
		t.Fatal("empty bench input accepted")
	}
}

func TestCompareFlagsOnlyRegressions(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
		{Name: "C", NsPerOp: 1000},
		{Name: "Gone", NsPerOp: 1000},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{
		{Name: "A", NsPerOp: 1240}, // +24%: inside a 25% gate
		{Name: "B", NsPerOp: 1300}, // +30%: regression
		{Name: "C", NsPerOp: 700},  // improvement
		{Name: "New", NsPerOp: 50},
	}}
	deltas, newOnly, baseOnly := compare(base, cur, 0.25, 0.25)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	regressed := 0
	for _, d := range deltas {
		if d.Regressed {
			regressed++
			if d.Name != "B" {
				t.Fatalf("unexpected regression: %+v", d)
			}
		}
	}
	if regressed != 1 {
		t.Fatalf("flagged %d regressions, want 1", regressed)
	}
	if len(newOnly) != 1 || newOnly[0] != "New" {
		t.Fatalf("newOnly = %v", newOnly)
	}
	if len(baseOnly) != 1 || baseOnly[0] != "Gone" {
		t.Fatalf("baseOnly = %v", baseOnly)
	}
}

// TestCompareZeroBaselineIsIncomparable is the divide-by-zero regression
// test: a baseline entry with ns/op == 0 used to produce a 0-growth delta
// (NaN/Inf territory avoided by skipping the division) that silently passed
// the gate. Such entries are now flagged incomparable, never ok.
func TestCompareZeroBaselineIsIncomparable(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		{Name: "Broken", NsPerOp: 0},
		{Name: "Fine", NsPerOp: 1000},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{
		{Name: "Broken", NsPerOp: 5e9}, // a huge "regression" vs nothing
		{Name: "Fine", NsPerOp: 1000},
	}}
	deltas, _, _ := compare(base, cur, 0.25, 0.25)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	for _, d := range deltas {
		switch d.Name {
		case "Broken":
			if !d.Incomparable {
				t.Fatalf("zero-baseline entry not flagged incomparable: %+v", d)
			}
			if d.Regressed {
				t.Fatalf("incomparable entry also counted as regression: %+v", d)
			}
			if math.IsNaN(d.Growth) || math.IsInf(d.Growth, 0) {
				t.Fatalf("growth is not finite: %+v", d)
			}
		case "Fine":
			if d.Incomparable || d.Regressed {
				t.Fatalf("healthy entry misflagged: %+v", d)
			}
		}
	}
}

// TestMainZeroBaselineFailsTheGate: end to end, a corrupt baseline entry is
// reported and fails the run instead of passing silently.
func TestMainZeroBaselineFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	baseFile := filepath.Join(dir, "BENCH_baseline.json")
	broken := Snapshot{Benchmarks: []Benchmark{
		{Name: "SuiteSerial", NsPerOp: 0, Iterations: 1},
		{Name: "SuiteParallel", NsPerOp: 3e8, Iterations: 1},
		{Name: "Scenario/social-burst", NsPerOp: 2.36e8, Iterations: 1},
	}}
	data, err := json.MarshalIndent(broken, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := invoke(t, sampleOutput, "-baseline", baseFile)
	if code != 1 {
		t.Fatalf("corrupt baseline passed: code=%d\n%s", code, out)
	}
	if !strings.Contains(out, "INCOMPARABLE") {
		t.Fatalf("incomparable entry not reported:\n%s", out)
	}
	if !strings.Contains(errOut, "non-positive ns/op") {
		t.Fatalf("stderr does not explain the failure: %q", errOut)
	}
}

// invoke runs one benchdiff invocation against an input string.
func invoke(t *testing.T, input string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main(args, strings.NewReader(input), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestMainWriteThenCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baseFile := filepath.Join(dir, "BENCH_baseline.json")
	curFile := filepath.Join(dir, "BENCH_abc1234.json")

	code, _, errOut := invoke(t, sampleOutput, "-write", baseFile)
	if code != 0 {
		t.Fatalf("write: code=%d stderr=%q", code, errOut)
	}
	var snap Snapshot
	data, err := os.ReadFile(baseFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("written snapshot is not valid JSON: %v", err)
	}

	// The identical run compares clean, itemizes every benchmark with its
	// memory movement, and writes the artifact snapshot.
	code, out, errOut := invoke(t, sampleOutput, "-write", curFile, "-baseline", baseFile)
	if code != 0 {
		t.Fatalf("identical run flagged: code=%d stderr=%q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "within 25% of baseline") {
		t.Fatalf("missing pass summary:\n%s", out)
	}
	for _, want := range []string{"SuiteSerial", "SuiteParallel", "Scenario/social-burst"} {
		if !strings.Contains(out, want) {
			t.Fatalf("success output does not itemize %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "524288 -> 524288 B/op") || !strings.Contains(out, "1024 -> 1024 allocs/op") {
		t.Fatalf("memory deltas missing from comparison lines:\n%s", out)
	}
	if _, err := os.Stat(curFile); err != nil {
		t.Fatalf("artifact snapshot not written: %v", err)
	}

	// A 10x slowdown of one benchmark fails the gate.
	slow := strings.Replace(sampleOutput, " 300000000 ns/op", "3000000000 ns/op", 1)
	code, out, errOut = invoke(t, slow, "-baseline", baseFile)
	if code != 1 {
		t.Fatalf("regression not flagged: code=%d\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(errOut, "regressed more than 25%") {
		t.Fatalf("regression report malformed:\nstdout=%s\nstderr=%s", out, errOut)
	}

	// A custom threshold loosens the gate.
	code, _, _ = invoke(t, slow, "-baseline", baseFile, "-threshold", "10")
	if code != 0 {
		t.Fatalf("threshold=10 still flagged: code=%d", code)
	}
}

// TestMainNewBenchmarkIsAdditionNotFailure: a benchmark present in the run
// but absent from the baseline — the normal state right after a benchmark is
// added, before the baseline is refreshed — is reported as an addition and
// passes the gate.
func TestMainNewBenchmarkIsAdditionNotFailure(t *testing.T) {
	dir := t.TempDir()
	baseFile := filepath.Join(dir, "BENCH_baseline.json")
	if code, _, errOut := invoke(t, sampleOutput, "-write", baseFile); code != 0 {
		t.Fatalf("write: code=%d stderr=%q", code, errOut)
	}

	withNew := strings.Replace(sampleOutput, "PASS\n",
		"BenchmarkInterpDispatch/interp-8 	     100	   1000000 ns/op	     133.1 Mbytecodes/s\nPASS\n", 1)
	code, out, errOut := invoke(t, withNew, "-baseline", baseFile)
	if code != 0 {
		t.Fatalf("new benchmark failed the gate: code=%d stderr=%q\n%s", code, errOut, out)
	}
	if !strings.Contains(out, "InterpDispatch/interp") ||
		!strings.Contains(out, "(new: no baseline entry)") {
		t.Fatalf("addition not reported:\n%s", out)
	}
	if strings.Contains(out, "REGRESSED") || strings.Contains(out, "INCOMPARABLE") {
		t.Fatalf("addition misreported as failure:\n%s", out)
	}
}

// TestMainWriteOnlySummarizesPerBenchmark: a snapshot-only invocation (the
// shape used when establishing a fresh baseline) prints one readable line
// per benchmark instead of leaving everything inside the JSON file.
func TestMainWriteOnlySummarizesPerBenchmark(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := invoke(t, sampleOutput, "-write", filepath.Join(dir, "BENCH_fresh.json"))
	if code != 0 {
		t.Fatalf("write: code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{
		"wrote",
		"SuiteSerial",
		"1200000000 ns/op",
		"524288 B/op",
		"1024 allocs/op",
		"Scenario/social-burst",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("write-only output missing %q:\n%s", want, out)
		}
	}
	// social-burst ran without -benchmem columns: no fabricated zeros.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "social-burst") && strings.Contains(line, "B/op") {
			t.Fatalf("memoryless benchmark grew memory columns: %q", line)
		}
	}
}

func TestMainUsageErrors(t *testing.T) {
	if code, _, _ := invoke(t, sampleOutput); code != 2 {
		t.Fatal("no-op invocation accepted")
	}
	if code, _, _ := invoke(t, sampleOutput, "-baseline", "/no/such/file.json"); code != 1 {
		t.Fatal("missing baseline not a comparison failure")
	}
}

// TestCompareAllocGate: allocs/op gates with its own threshold; a zero
// allocs/op baseline is incomparable only when the run measured allocations.
func TestCompareAllocGate(t *testing.T) {
	base := &Snapshot{Benchmarks: []Benchmark{
		{Name: "Grew", NsPerOp: 1000, AllocsOp: 1000},
		{Name: "Held", NsPerOp: 1000, AllocsOp: 1000},
		{Name: "Gained", NsPerOp: 1000, AllocsOp: 0},
		{Name: "Memless", NsPerOp: 1000, AllocsOp: 0},
	}}
	cur := &Snapshot{Benchmarks: []Benchmark{
		{Name: "Grew", NsPerOp: 1000, AllocsOp: 1300}, // +30%: regression
		{Name: "Held", NsPerOp: 1000, AllocsOp: 1240}, // +24%: inside the gate
		{Name: "Gained", NsPerOp: 1000, AllocsOp: 50}, // allocs vs none: incomparable
		{Name: "Memless", NsPerOp: 1000, AllocsOp: 0}, // never measured: not gated
	}}
	deltas, _, _ := compare(base, cur, 0.25, 0.25)
	byName := make(map[string]Delta)
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["Grew"]; !d.AllocsRegressed || d.Regressed {
		t.Fatalf("Grew misjudged: %+v", d)
	}
	if d := byName["Held"]; d.AllocsRegressed || d.AllocsIncomparable {
		t.Fatalf("Held misjudged: %+v", d)
	}
	if d := byName["Gained"]; !d.AllocsIncomparable || d.AllocsRegressed {
		t.Fatalf("Gained misjudged: %+v", d)
	}
	if d := byName["Memless"]; d.AllocsIncomparable || d.AllocsRegressed {
		t.Fatalf("Memless misjudged: %+v", d)
	}
	// A looser alloc threshold admits the growth without touching ns/op.
	deltas, _, _ = compare(base, cur, 0.25, 0.5)
	for _, d := range deltas {
		if d.Name == "Grew" && d.AllocsRegressed {
			t.Fatalf("alloc threshold not honored: %+v", d)
		}
	}
}

// TestMainAllocRegressionFailsTheGate: end to end, growing allocs/op past the
// default 25% fails the run even when ns/op is flat, and -allocthreshold
// loosens only the allocation gate.
func TestMainAllocRegressionFailsTheGate(t *testing.T) {
	dir := t.TempDir()
	baseFile := filepath.Join(dir, "BENCH_baseline.json")
	if code, _, errOut := invoke(t, sampleOutput, "-write", baseFile); code != 0 {
		t.Fatalf("write: code=%d stderr=%q", code, errOut)
	}
	grown := strings.ReplaceAll(sampleOutput, "1024 allocs/op", "2048 allocs/op")
	code, out, errOut := invoke(t, grown, "-baseline", baseFile)
	if code != 1 {
		t.Fatalf("alloc regression passed: code=%d\n%s", code, out)
	}
	if !strings.Contains(out, "ALLOCS-REGRESSED") || !strings.Contains(errOut, "grew allocs/op more than 25%") {
		t.Fatalf("alloc regression report malformed:\nstdout=%s\nstderr=%s", out, errOut)
	}
	if code, _, _ := invoke(t, grown, "-baseline", baseFile, "-allocthreshold", "2"); code != 0 {
		t.Fatal("allocthreshold=2 still flagged the doubled allocs")
	}
}
