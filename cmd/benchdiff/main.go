// Command benchdiff is the benchmark-regression gate of the CI pipeline.
// It parses `go test -bench` text output into a stable JSON document and
// compares it against a committed baseline, failing when any benchmark's
// ns/op or allocs/op regresses beyond its threshold. Every invocation
// itemizes the run one line per benchmark — deltas (ns/op and allocs/op
// gating, B/op informational) when a baseline is given, raw values otherwise
// — so reading a BENCH_<sha>.json trend never requires diffing JSON by hand.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem -benchtime 1x | \
//	    benchdiff -write BENCH_abc1234.json -baseline BENCH_baseline.json
//
// Flags:
//
//	-in FILE              read bench output from FILE instead of stdin
//	-write FILE           write the parsed run as a JSON snapshot
//	-baseline FILE        compare against this JSON snapshot
//	-threshold 0.25       allowed fractional ns/op growth before failing
//	-allocthreshold 0.25  allowed fractional allocs/op growth before failing
//
// The allocs/op gate only applies where allocations were measured: a
// benchmark with zero allocs/op on both sides (no -benchmem, or genuinely
// allocation-free on both sides) is not gated, while a positive current
// value against a zero baseline is flagged incomparable exactly like a
// non-positive baseline ns/op — a gained allocation against a clean baseline
// must never pass silently.
//
// Exit status: 0 ok, 1 regression past a threshold (or baseline unreadable,
// or a baseline entry has a non-positive ns/op — or allocs/op where the run
// measured some — and is incomparable), 2 usage/parse error (a NaN or
// infinite value included).
//
// Benchmarks present only in the run (new) or only in the baseline
// (removed/renamed) are reported but never fail the gate — the baseline is
// refreshed by committing the uploaded artifact when the suite's shape
// changes deliberately.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result. Repeated runs of the same name
// (-count > 1) are averaged.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`

	samples int
}

// finite reports whether every value of b is a finite number. ParseFloat
// accepts "NaN" and "Inf", and a sum of repeated counts can overflow to Inf;
// such a value has no JSON encoding, and a NaN compares false against every
// threshold, so it would pass the gate unseen.
func (b *Benchmark) finite() bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, v := range b.Metrics {
		if !ok(v) {
			return false
		}
	}
	return ok(b.NsPerOp) && ok(b.BytesPerOp) && ok(b.AllocsOp)
}

// Snapshot is the JSON document a bench run serializes to.
type Snapshot struct {
	GoOS       string      `json:"go_os"`
	GoArch     string      `json:"go_arch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gomaxprocsSuffix matches the "-8" tail go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` text output. Lines that are not
// benchmark results (headers, PASS, metadata) are skipped.
func parseBench(r io.Reader) (*Snapshot, error) {
	byName := make(map[string]*Benchmark)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Minimum shape: name, iterations, value, unit.
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		name = gomaxprocsSuffix.ReplaceAllString(name, "")
		b, ok := byName[name]
		if !ok {
			b = &Benchmark{Name: name, Metrics: make(map[string]float64)}
			byName[name] = b
			order = append(order, name)
		}
		b.samples++
		b.Iterations += iters
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp += v
			case "B/op":
				b.BytesPerOp += v
			case "allocs/op":
				b.AllocsOp += v
			default:
				b.Metrics[unit] += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark lines in input")
	}
	snap := &Snapshot{GoOS: runtime.GOOS, GoArch: runtime.GOARCH}
	for _, name := range order {
		b := byName[name]
		n := float64(b.samples)
		b.Iterations /= int64(b.samples)
		b.NsPerOp /= n
		b.BytesPerOp /= n
		b.AllocsOp /= n
		for k := range b.Metrics {
			b.Metrics[k] /= n
		}
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		if !b.finite() {
			return nil, fmt.Errorf("benchdiff: %s: non-finite value", name)
		}
		snap.Benchmarks = append(snap.Benchmarks, *b)
	}
	return snap, nil
}

// Delta is one benchmark's baseline comparison.
type Delta struct {
	Name      string
	Base      float64 // baseline ns/op
	Cur       float64 // current ns/op
	Growth    float64 // (Cur-Base)/Base
	Regressed bool
	// Incomparable marks a baseline entry with a non-positive ns/op: a
	// growth ratio against it would be NaN/Inf, so the entry is reported
	// as broken instead of silently passing the gate.
	Incomparable bool
	// Allocation movement gates like ns/op; byte movement is informational.
	BaseBytes, CurBytes   float64
	BaseAllocs, CurAllocs float64
	AllocsGrowth          float64
	AllocsRegressed       bool
	// AllocsIncomparable marks a run that measured allocations against a
	// baseline entry with none: no finite ratio exists, and a gained
	// allocation profile must not pass silently.
	AllocsIncomparable bool
}

// compare evaluates cur against base: every shared benchmark whose ns/op
// grew beyond threshold, or whose allocs/op grew beyond allocThreshold, is a
// regression. Shared benchmarks whose baseline ns/op is zero (a corrupt or
// hand-edited snapshot) are flagged incomparable rather than given a free
// pass; a zero allocs/op baseline is incomparable only when the current run
// measured allocations (both-zero means nothing to gate).
func compare(base, cur *Snapshot, threshold, allocThreshold float64) (deltas []Delta, newOnly, baseOnly []string) {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	curNames := make(map[string]bool, len(cur.Benchmarks))
	for _, c := range cur.Benchmarks {
		curNames[c.Name] = true
		b, ok := baseBy[c.Name]
		if !ok {
			newOnly = append(newOnly, c.Name)
			continue
		}
		d := Delta{
			Name: c.Name, Base: b.NsPerOp, Cur: c.NsPerOp,
			BaseBytes: b.BytesPerOp, CurBytes: c.BytesPerOp,
			BaseAllocs: b.AllocsOp, CurAllocs: c.AllocsOp,
		}
		if b.NsPerOp > 0 {
			d.Growth = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
			d.Regressed = d.Growth > threshold
		} else {
			d.Incomparable = true
		}
		switch {
		case b.AllocsOp > 0:
			d.AllocsGrowth = (c.AllocsOp - b.AllocsOp) / b.AllocsOp
			d.AllocsRegressed = d.AllocsGrowth > allocThreshold
		case c.AllocsOp > 0:
			d.AllocsIncomparable = true
		}
		deltas = append(deltas, d)
	}
	for _, b := range base.Benchmarks {
		if !curNames[b.Name] {
			baseOnly = append(baseOnly, b.Name)
		}
	}
	sort.Strings(newOnly)
	sort.Strings(baseOnly)
	return deltas, newOnly, baseOnly
}

// memDelta renders a benchmark's memory movement as a line suffix, or ""
// when neither side recorded memory (the run lacked -benchmem). The suffix
// itself is informational — the allocs/op gate reports through the line's
// status column, and B/op never gates.
func memDelta(d Delta) string {
	var parts []string
	if d.BaseBytes != 0 || d.CurBytes != 0 {
		parts = append(parts, fmt.Sprintf("%.0f -> %.0f B/op%s",
			d.BaseBytes, d.CurBytes, growthTag(d.BaseBytes, d.CurBytes)))
	}
	if d.BaseAllocs != 0 || d.CurAllocs != 0 {
		parts = append(parts, fmt.Sprintf("%.0f -> %.0f allocs/op%s",
			d.BaseAllocs, d.CurAllocs, growthTag(d.BaseAllocs, d.CurAllocs)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "  [" + strings.Join(parts, ", ") + "]"
}

// growthTag formats a percentage change, or "" when the base is non-positive
// and no finite ratio exists.
func growthTag(base, cur float64) string {
	if base <= 0 {
		return ""
	}
	return fmt.Sprintf(" %+.1f%%", (cur-base)/base*100)
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// Main is the testable entry point.
func Main(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "bench output file (default: stdin)")
	write := fs.String("write", "", "write the parsed run to this JSON file")
	baseline := fs.String("baseline", "", "compare against this JSON snapshot")
	threshold := fs.Float64("threshold", 0.25, "allowed fractional ns/op growth")
	allocThreshold := fs.Float64("allocthreshold", 0.25, "allowed fractional allocs/op growth")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *write == "" && *baseline == "" {
		fmt.Fprintln(stderr, "benchdiff: nothing to do (need -write and/or -baseline)")
		return 2
	}
	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		defer f.Close()
		src = f
	}
	cur, err := parseBench(src)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *write != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d benchmarks)\n", *write, len(cur.Benchmarks))
	}
	if *baseline == "" {
		// No baseline to diff against, but the run should still read like
		// one: one line per benchmark, so a snapshot-only invocation never
		// needs manual JSON spelunking.
		for _, b := range cur.Benchmarks {
			line := fmt.Sprintf("%-40s %14.0f ns/op", b.Name, b.NsPerOp)
			if b.BytesPerOp != 0 || b.AllocsOp != 0 {
				line += fmt.Sprintf("  %12.0f B/op  %8.0f allocs/op", b.BytesPerOp, b.AllocsOp)
			}
			fmt.Fprintln(stdout, line)
		}
		return 0
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *baseline, err)
		return 1
	}
	deltas, newOnly, baseOnly := compare(&base, cur, *threshold, *allocThreshold)
	failed, allocFailed, incomparable := 0, 0, 0
	for _, d := range deltas {
		if d.Incomparable {
			incomparable++
			fmt.Fprintf(stdout, "%-40s %14.0f -> %14.0f ns/op  INCOMPARABLE (baseline ns/op not positive)\n",
				d.Name, d.Base, d.Cur)
			continue
		}
		if d.AllocsIncomparable {
			incomparable++
			fmt.Fprintf(stdout, "%-40s %14.0f -> %14.0f allocs/op  INCOMPARABLE (baseline allocs/op not positive)\n",
				d.Name, d.BaseAllocs, d.CurAllocs)
			continue
		}
		var bad []string
		if d.Regressed {
			bad = append(bad, "REGRESSED")
			failed++
		}
		if d.AllocsRegressed {
			bad = append(bad, "ALLOCS-REGRESSED")
			allocFailed++
		}
		status := "ok"
		if len(bad) > 0 {
			status = strings.Join(bad, "+")
		}
		fmt.Fprintf(stdout, "%-40s %14.0f -> %14.0f ns/op  %+7.1f%%  %s%s\n",
			d.Name, d.Base, d.Cur, d.Growth*100, status, memDelta(d))
	}
	for _, n := range newOnly {
		fmt.Fprintf(stdout, "%-40s (new: no baseline entry)\n", n)
	}
	for _, n := range baseOnly {
		fmt.Fprintf(stdout, "%-40s (in baseline only: removed or renamed?)\n", n)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d benchmark(s) regressed more than %.0f%% vs %s\n",
			failed, *threshold*100, *baseline)
		return 1
	}
	if allocFailed > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d benchmark(s) grew allocs/op more than %.0f%% vs %s\n",
			allocFailed, *allocThreshold*100, *baseline)
		return 1
	}
	if incomparable > 0 {
		// A broken baseline entry must not pass silently: refresh the
		// baseline snapshot rather than trusting a meaningless ratio.
		fmt.Fprintf(stderr, "benchdiff: %d baseline entr(ies) in %s have non-positive ns/op (or allocs/op) and cannot gate anything\n",
			incomparable, *baseline)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.0f%% of baseline\n",
		len(deltas), *threshold*100)
	return 0
}
