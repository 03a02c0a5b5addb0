// Command agavebench is the end-to-end benchmark of the agave CLI. It drives
// the built `agave` binary as a user does — one invocation per pass, closed
// loop with one client, timed from outside with tracing off — and checks
// every pass's output against pinned digests. With -trace 1 it instead runs
// the traced in-process ledger: spans around each layer's exported calls
// plus per-layer probes. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds both
// binaries first:
//
//	bash agavebench/run.sh --workload dense-session --seed 1 --seconds 10 --trace 0
//	bash agavebench/run.sh --workload all --seconds 10    # every workload, both modes
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics of the chosen mode.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"agave/internal/scenario"
)

// pins.json holds each workload's stdout sha256 and total references at
// the shipped seed, measured on the seed commit.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	StdoutSHA256 string `json:"stdout_sha256"`
	TotalRefs    uint64 `json:"total_refs"`
}

// pinFile pins, per workload, each input's pass at the pinned seed.
type pinFile struct {
	Seed      uint64           `json:"seed"`
	Workloads map[string][]pin `json:"workloads"`
}

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the CLI sees; every name is listed in
// BENCHMARK.json's end_to_end.
var e2eMetrics = []metricDef{
	{"mrefs_per_s", "Mrefs/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// setupPerPass is how many `agave list` invocations follow each pass for
// setup_s, spreading its samples over the whole run.
const setupPerPass = 2

func defaultWorkloads() []workload {
	return []workload{
		&paperSuite{durationMS: 1000, warmupMS: 300},
		&denseSession{
			gen:        scenario.GenConfig{Apps: 50, Events: 2000, Pressure: 2, Inputs: 200},
			sessions:   16,
			durationMS: 1000, warmupMS: 300,
		},
		&fleetChaos{
			sessions: 64,
			gen:      scenario.GenConfig{Apps: 10, Pressure: 1, Inputs: 20, Faults: 2},
			// The CLI needs a benchmark in a fleet plan; this is the
			// cheapest one.
			bench:      "vlc.mp3.view.bkg",
			workers:    min(2, runtime.NumCPU()),
			shardSize:  8,
			durationMS: 100, warmupMS: 100,
		},
	}
}

type options struct {
	agave   string // the built agave binary
	out     string // pass working files and the span/ledger files
	commit  string
	seed    uint64
	seconds time.Duration
	pins    pinFile
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metricValue{}} }

func (r *result) fail(log io.Writer, what string, err error) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(log, "FAIL %s: %v\n", what, err)
}

// machine facts travel with every result set, so numbers from a different
// shape of machine are never compared silently.
type machine struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Seed      uint64 `json:"seed"`
}

func (o options) machine() machine {
	return machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: o.commit, Seed: o.seed}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agavebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-suite, dense-session, fleet-chaos, or all")
	seed := fs.Uint64("seed", 1, "workload seed; pins.json pins the outputs of its seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: time the CLI end to end; 1: traced in-process ledger")
	runs := fs.Int("runs", 1, "end-to-end runs per workload, at seeds seed..seed+runs-1")
	record := fs.String("record", "", "write the runs' summary and ledger as a baseline JSON file")
	agave := fs.String("agave", ".bench_build/bin/agave", "the agave binary under test")
	out := fs.String("out", ".bench_build/out", "directory for pass working files and the span/ledger files")
	commit := fs.String("commit", "unknown", "commit of the binary under test, recorded with results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(stderr, "agavebench: pins.json:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 || *runs < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "agavebench: want --trace 0|1, --seconds >= 1, --runs >= 1 and no arguments")
		return 2
	}
	all := defaultWorkloads()
	var targets []workload
	for _, w := range all {
		if *name == w.name() || *name == "all" {
			targets = append(targets, w)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintf(stderr, "agavebench: unknown workload %q (want %s, or all)\n", *name, names(all))
		return 2
	}
	if _, err := os.Stat(*agave); err != nil {
		fmt.Fprintln(stderr, "agavebench: agave binary:", err)
		return 1
	}
	opts := options{agave: *agave, out: *out, commit: *commit, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, pins: pins}

	var final *result
	var err error
	if *name == "all" || *runs > 1 || *record != "" {
		final, err = sweep(targets, opts, *runs, *trace == 1 || *name == "all", *record, stdout)
	} else if *trace == 1 {
		final, err = traceRun(targets[0], all, opts, stdout)
	} else {
		final, err = e2eRun(targets[0], opts, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "agavebench:", err)
		return 1
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "agavebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// workDir is a fresh working directory for one run of one workload.
func workDir(o options, w workload) (string, error) {
	dir, err := filepath.Abs(filepath.Join(o.out, w.name()))
	if err != nil {
		return "", err
	}
	return dir, freshDir(dir)
}

// prepare writes w's inputs for o's seed under dir.
func prepare(w workload, dir string, o options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := w.prepare(dir, o.seed); err != nil {
		return fmt.Errorf("%s: prepare: %w", w.name(), err)
	}
	return nil
}

// pinned returns each input's pinned stdout digest and total at o's seed,
// or empty digests (for each input's first pass to set) and nil totals
// when the seed is not pinned.
func pinned(w workload, o options) ([]string, []uint64, error) {
	digests := make([]string, w.inputs())
	if o.seed != o.pins.Seed {
		return digests, nil, nil
	}
	pins := o.pins.Workloads[w.name()]
	if len(pins) != w.inputs() {
		return nil, nil, fmt.Errorf("%s: %d pins for %d inputs at seed %d", w.name(), len(pins), w.inputs(), o.seed)
	}
	totals := make([]uint64, len(pins))
	for i, p := range pins {
		digests[i], totals[i] = p.StdoutSHA256, p.TotalRefs
	}
	return digests, totals, nil
}

var errPinMismatch = errors.New("reference differs from pin")

// reference computes w's expected outcome in this process. With pinned
// totals, the reference must reproduce them, and passes are held to the
// pins rather than to this run's reference.
func reference(w workload, pins []uint64) (*outcome, error) {
	ref, err := w.inproc(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", w.name(), err)
	}
	if pins == nil {
		return ref, nil
	}
	if !slices.Equal(ref.totals, pins) {
		err = fmt.Errorf("%w: %s total refs %v, pinned %v", errPinMismatch, w.name(), ref.totals, pins)
	}
	ref.totals = pins
	return ref, err
}

// summary is one metric's samples within a run.
type summary struct {
	def    metricDef
	values []float64
}

func (s summary) print(w io.Writer, workload string) {
	q1, med, q3 := quartiles(s.values)
	fmt.Fprintf(w, "%-14s %-28s n=%-4d median=%-12.6g q1=%-12.6g q3=%-12.6g %s\n",
		workload, s.def.name, len(s.values), med, q1, q3, s.def.unit)
}

// e2eRun times w's CLI cycles for o.seconds and returns the result line.
// A cycle's mrefs_per_s is its total refs over
// its summed pass walls; cpu_s and peak_rss_mb are per-pass means.
//
// The in-process reference runs after the timed cycles: a child's maxrss
// includes the memory of the process that spawned it, so agavebench stays
// small while it spawns passes.
func e2eRun(w workload, o options, log io.Writer) (*result, error) {
	res := newResult()
	dir, err := workDir(o, w)
	if err != nil {
		return nil, err
	}
	if err := prepare(w, filepath.Join(dir, "inputs"), o); err != nil {
		return nil, err
	}
	digests, pins, err := pinned(w, o)
	if err != nil {
		return nil, err
	}

	type pass struct {
		cycle, input int
		printed      string
		sample
	}
	var passes []pass
	bad := map[int]bool{} // cycles with a failed pass
	setup := summary{def: e2eMetrics[3]}
	cycle := func(c int) error {
		for i := 0; i < w.inputs(); i++ {
			passDir := filepath.Join(dir, "pass")
			if err := freshDir(passDir); err != nil {
				return err
			}
			s, err := invoke(o.agave, w.args(i, passDir))
			res.Attempted++
			var printed string
			if err == nil {
				err = checkDigest(digests, i, s.stdout)
			}
			if err == nil {
				printed, err = w.printed(s.stdout)
			}
			if err != nil {
				res.fail(log, fmt.Sprintf("%s cycle %d input %d", w.name(), c, i), err)
				bad[c] = true
			}
			s.stdout = nil
			passes = append(passes, pass{c, i, printed, s})
			for j := 0; j < setupPerPass; j++ {
				l, err := invoke(o.agave, []string{"list"})
				if err != nil {
					return err
				}
				setup.values = append(setup.values, l.wall.Seconds())
			}
		}
		return nil
	}
	// Cycle 0 warms the page cache and sets unpinned digests; it is
	// checked but not timed.
	cycles := 1
	if err := cycle(0); err != nil {
		return nil, err
	}
	setup.values = nil
	for start := time.Now(); cycles == 1 || time.Since(start) < o.seconds; cycles++ {
		if err := cycle(cycles); err != nil {
			return nil, err
		}
	}

	ref, err := reference(w, pins)
	res.Attempted++
	if errors.Is(err, errPinMismatch) {
		res.fail(log, "reference", err)
	} else if err != nil {
		return nil, err
	}
	for _, p := range passes {
		if !bad[p.cycle] && p.printed != w.expected(p.input, ref) {
			res.fail(log, fmt.Sprintf("%s cycle %d input %d", w.name(), p.cycle, p.input),
				fmt.Errorf("printed %s, reference %s", p.printed, w.expected(p.input, ref)))
			bad[p.cycle] = true
		}
	}

	// A cycle's values: total refs over summed walls, and per-pass means.
	// Failed cycles are timed only when no cycle was correct, so the
	// result line still carries every metric.
	k := float64(w.inputs())
	sums := []summary{{def: e2eMetrics[0]}, {def: e2eMetrics[1]}, {def: e2eMetrics[2]}, setup}
	for _, keepBad := range []bool{false, true} {
		for c := 1; c < cycles; c++ {
			if bad[c] && !keepBad {
				continue
			}
			var wall, cpu time.Duration
			var rss float64
			for _, p := range passes[c*w.inputs() : (c+1)*w.inputs()] {
				wall, cpu, rss = wall+p.wall, cpu+p.cpu, rss+p.rssMB
			}
			sums[0].values = append(sums[0].values, float64(ref.total())/1e6/wall.Seconds())
			sums[1].values = append(sums[1].values, cpu.Seconds()/k)
			sums[2].values = append(sums[2].values, rss/k)
		}
		if len(sums[0].values) > 0 {
			break
		}
	}

	m := o.machine()
	fmt.Fprintf(log, "# %s trace=0 seed=%d nproc=%d go=%s commit=%s inputs=%d total_refs=%v\n",
		w.name(), m.Seed, m.NProc, m.GoVersion, m.Commit, w.inputs(), ref.totals)
	for i, d := range digests {
		fmt.Fprintf(log, "# %s input %d stdout sha256 %s\n", w.name(), i, d)
	}
	for _, s := range sums {
		s.print(log, w.name())
		res.Metrics[s.def.name] = metricValue{Value: median(s.values), Unit: s.def.unit}
	}
	fmt.Fprintf(log, "%-14s %-28s %d/%d = %.4g\n", w.name(), "fail_frac", res.Failed, res.Attempted,
		float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// traceRun runs the traced ledger with target as the reported workload for
// o.seconds, writes the span and ledger file, and returns the per-layer
// result.
func traceRun(target workload, all []workload, o options, log io.Writer) (*result, error) {
	res := newResult()
	dir, err := workDir(o, target)
	if err != nil {
		return nil, err
	}
	l := &ledger{agave: o.agave, dir: dir, target: target, all: all,
		want: map[string]*outcome{}, rec: newRecorder()}
	for _, w := range all {
		if err := prepare(w, filepath.Join(dir, "inputs"), o); err != nil {
			return nil, err
		}
		_, pins, err := pinned(w, o)
		if err != nil {
			return nil, err
		}
		ref, err := reference(w, pins)
		res.Attempted++
		if errors.Is(err, errPinMismatch) {
			res.fail(log, "reference", err)
		} else if err != nil {
			return nil, err
		}
		l.want[w.name()] = ref
	}
	sums := make([]summary, len(layerMetrics))
	for i, d := range layerMetrics {
		sums[i].def = d
	}
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < o.seconds; i++ {
		vals, attempted, bad, err := l.iterate(i)
		if err != nil {
			return nil, err
		}
		res.Attempted += attempted
		for _, e := range bad {
			res.fail(log, "ledger", e)
		}
		for j := range sums {
			sums[j].values = append(sums[j].values, vals[sums[j].def.name])
		}
	}
	m := o.machine()
	fmt.Fprintf(log, "# %s trace=1 seed=%d nproc=%d go=%s commit=%s\n",
		target.name(), m.Seed, m.NProc, m.GoVersion, m.Commit)
	for _, s := range sums {
		s.print(log, target.name())
		res.Metrics[s.def.name] = metricValue{Value: median(s.values), Unit: s.def.unit}
	}
	spansPath, err := writeTrace(l.rec, target, sums, m, o.out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# spans and ledger: %s\n", spansPath)
	return res, nil
}

// writeTrace writes the spans (with self time) and the per-layer ledger,
// including each span name's total self time, to one JSON file.
func writeTrace(rec *recorder, target workload, sums []summary, m machine, out string) (string, error) {
	type spanOut struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(rec.spans)
	doc := struct {
		Machine  machine                   `json:"machine"`
		Workload string                    `json:"workload"`
		Ledger   map[string]map[string]any `json:"ledger"`
		SelfMS   map[string]float64        `json:"self_ms_by_span_name"`
		Spans    []spanOut                 `json:"spans"`
	}{Machine: m, Workload: target.name(), Ledger: map[string]map[string]any{}, SelfMS: map[string]float64{}}
	for _, s := range sums {
		q1, med, q3 := quartiles(s.values)
		doc.Ledger[s.def.name] = map[string]any{"unit": s.def.unit, "n": len(s.values), "median": med, "q1": q1, "q3": q3}
	}
	for i, s := range rec.spans {
		doc.Spans = append(doc.Spans, spanOut{s, self[i]})
		doc.SelfMS[s.Name] += float64(self[i]) / 1e6
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(out, "trace-"+target.name()+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// sweep runs each target for runs end-to-end runs (seeds seed..) and, when
// traced, one ledger run at the first seed; it prints each metric's median
// and quartiles across runs and optionally records them as a baseline. The
// returned result merges every run, with metrics named workload.metric.
//
// Each run is a fresh invocation of this program, as the benchmark's
// caller makes them: a spawned pass's maxrss includes its spawner's peak,
// so one process must not run every reference and then keep spawning.
func sweep(targets []workload, o options, runs int, traced bool, record string, log io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	final := newResult()
	type across struct {
		Unit   string    `json:"unit"`
		N      int       `json:"n"`
		Median float64   `json:"median"`
		Q1     float64   `json:"q1"`
		Q3     float64   `json:"q3"`
		Values []float64 `json:"values"`
	}
	type workloadRecord struct {
		EndToEnd  map[string]across      `json:"end_to_end"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	}
	baseline := struct {
		Machine    machine                   `json:"machine"`
		RunSeconds float64                   `json:"run_seconds"`
		Seeds      string                    `json:"seeds"`
		Workloads  map[string]workloadRecord `json:"workloads"`
	}{Machine: o.machine(), RunSeconds: o.seconds.Seconds(),
		Seeds: fmt.Sprintf("%d..%d", o.seed, o.seed+uint64(runs)-1), Workloads: map[string]workloadRecord{}}
	// one runs a single invocation, forwards its report lines and returns
	// its result line.
	one := func(w workload, seed uint64, trace int) (*result, error) {
		cmd := exec.Command(self, "-workload", w.name(), "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(int(o.seconds/time.Second)), "-trace", strconv.Itoa(trace),
			"-agave", o.agave, "-out", o.out, "-commit", o.commit)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d trace %d: %w", w.name(), seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(log, l)
		}
		r := newResult()
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
			return nil, fmt.Errorf("%s seed %d: result line: %w", w.name(), seed, err)
		}
		final.Correct = final.Correct && r.Correct
		final.Attempted += r.Attempted
		final.Failed += r.Failed
		for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
			final.Metrics[w.name()+"."+k] = r.Metrics[k]
		}
		return r, nil
	}
	for _, w := range targets {
		rec := workloadRecord{EndToEnd: map[string]across{}}
		medians := map[string][]float64{}
		for i := 0; i < runs; i++ {
			r, err := one(w, o.seed+uint64(i), 0)
			if err != nil {
				return nil, err
			}
			rec.Attempted += r.Attempted
			rec.Failed += r.Failed
			for _, d := range e2eMetrics {
				medians[d.name] = append(medians[d.name], r.Metrics[d.name].Value)
			}
		}
		if runs > 1 {
			fmt.Fprintf(log, "# %s across %d runs (seeds %s): each run's median\n", w.name(), runs, baseline.Seeds)
		}
		for _, d := range e2eMetrics {
			q1, med, q3 := quartiles(medians[d.name])
			rec.EndToEnd[d.name] = across{Unit: d.unit, N: runs, Median: med, Q1: q1, Q3: q3, Values: medians[d.name]}
			if runs > 1 {
				summary{def: d, values: medians[d.name]}.print(log, w.name())
			}
		}
		if traced {
			r, err := one(w, o.seed, 1)
			if err != nil {
				return nil, err
			}
			rec.PerLayer = r.Metrics
		}
		baseline.Workloads[w.name()] = rec
	}
	if record == "" {
		return final, nil
	}
	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		return nil, err
	}
	return final, os.WriteFile(record, append(data, '\n'), 0o644)
}

// names lists the workloads for usage text.
func names(ws []workload) string {
	var n []string
	for _, w := range ws {
		n = append(n, w.name())
	}
	return strings.Join(n, ", ")
}
