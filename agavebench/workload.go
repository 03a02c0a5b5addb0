package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/report"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/suite"
)

// A workload is one `agave` invocation shape over a fixed set of inputs,
// all made from the workload seed. prepare writes them; a cycle runs one
// pass per input, and args gives the command line of the pass on input i.
// inproc runs the whole cycle's work in this process through the façade
// exports (the reference outcome, and the traced pass). printed extracts
// what a pass's stdout reports that the reference can confirm, beyond its
// digest, and expected is that value as the reference has it.
type workload interface {
	name() string
	prepare(dir string, seed uint64) error
	inputs() int
	args(input int, passDir string) []string
	inproc(rec *recorder) (*outcome, error)
	printed(stdout []byte) (string, error)
	expected(input int, ref *outcome) string
}

// outcome is what a cycle must reproduce: each input's attributed
// reference total (the mrefs_per_s numerator), the fleet report
// fingerprint, and the exact counts of the per-layer ledger.
type outcome struct {
	totals      []uint64
	fingerprint string
	counts      map[string]float64
	// fleetLines and spec are the fleet pass's own wire lines and job,
	// kept for the fleet codec probe and the traced coordinator run.
	fleetLines [][]byte
	spec       *fleet.Spec
}

// countNames maps core.SuiteMetrics / fleet line metric names to ledger
// names. These counts never move on a speed-only change.
var countNames = []struct{ metric, ledger string }{
	{"total_refs", "stats.total_refs"},
	{"processes", "kernel.processes"},
	{"threads", "kernel.threads"},
	{"lmk_kills", "kernel.lmk_kills"},
	{"trims", "android.trims"},
	{"input_dispatched", "android.input_dispatched"},
	{"input_dropped", "android.input_dropped"},
	{"faults_injected", "android.faults_injected"},
	{"faults_detected", "android.faults_detected"},
	{"faults_recovered", "android.faults_recovered"},
	{"anrs", "android.anrs"},
}

// sumCounts folds per-run metrics into the ledger's exact counts.
func sumCounts(results []*core.Result) map[string]float64 {
	counts := make(map[string]float64, len(countNames))
	for _, c := range countNames {
		counts[c.ledger] = 0
	}
	for _, r := range results {
		m := core.SuiteMetrics(r)
		for _, c := range countNames {
			counts[c.ledger] += m[c.metric]
		}
	}
	return counts
}

func (o *outcome) total() uint64 {
	var t uint64
	for _, v := range o.totals {
		t += v
	}
	return t
}

func (o *outcome) same(want *outcome) error {
	if !slices.Equal(o.totals, want.totals) {
		return fmt.Errorf("total refs %v, want %v", o.totals, want.totals)
	}
	if o.fingerprint != want.fingerprint {
		return fmt.Errorf("fingerprint %s, want %s", o.fingerprint, want.fingerprint)
	}
	for _, c := range countNames {
		if want.counts != nil && o.counts[c.ledger] != want.counts[c.ledger] {
			return fmt.Errorf("%s = %v, want %v", c.ledger, o.counts[c.ledger], want.counts[c.ledger])
		}
	}
	return nil
}

func config(seed uint64, durationMS, warmupMS int64) core.Config {
	return core.Config{
		Seed:     seed,
		Duration: sim.Ticks(durationMS) * sim.Millisecond,
		Warmup:   sim.Ticks(warmupMS) * sim.Millisecond,
		Quantum:  sim.Millisecond,
	}
}

func durationArgs(seed uint64, durationMS, warmupMS int64) []string {
	return []string{"-duration", strconv.FormatInt(durationMS, 10),
		"-warmup", strconv.FormatInt(warmupMS, 10), "-seed", strconv.FormatUint(seed, 10)}
}

// paperSuite is `agave all`: every figure, Table I and the census over the
// 19 Agave and 6 SPEC benchmarks, serially, at the paper's durations.
type paperSuite struct {
	durationMS, warmupMS int64
	benches              []string // empty = the full suite, as `agave all` runs
	seed                 uint64
}

func (w *paperSuite) name() string { return "paper-suite" }

func (w *paperSuite) prepare(dir string, seed uint64) error { w.seed = seed; return nil }

func (w *paperSuite) inputs() int { return 1 }

func (w *paperSuite) args(int, string) []string {
	a := append([]string{"all"}, durationArgs(w.seed, w.durationMS, w.warmupMS)...)
	if len(w.benches) > 0 {
		a = append(a, "-bench", strings.Join(w.benches, ","))
	}
	return a
}

func (w *paperSuite) inproc(rec *recorder) (*outcome, error) {
	cfg := config(w.seed, w.durationMS, w.warmupMS)
	names := w.benches
	if len(names) == 0 {
		names = core.SuiteNames()
	}
	results := make([]*core.Result, 0, len(names))
	for _, n := range names {
		s := rec.begin("core.Run", n, rec.trace())
		r, err := core.Run(n, cfg)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("core.Run %s: %w", n, err)
		}
		results = append(results, r)
	}
	s := rec.begin("report.paper", "", 0)
	for _, fig := range []report.Figure{report.Fig1(results), report.Fig2(results), report.Fig3(results), report.Fig4(results)} {
		report.WriteTable(io.Discard, fig)
	}
	report.WriteTable1(io.Discard, report.Table1(results), 6)
	report.WriteScalars(io.Discard, report.Scalars(results))
	report.SuiteRegionCounts(results)
	rec.end(s)
	counts := sumCounts(results)
	return &outcome{totals: []uint64{uint64(counts["stats.total_refs"])}, counts: counts}, nil
}

// `agave all` prints shares, not totals: its digest is its only check.
func (w *paperSuite) printed([]byte) (string, error) { return "", nil }

func (w *paperSuite) expected(int, *outcome) string { return "" }

// denseSession is `agave scenario -file` on long generated machines. A
// cycle runs sessions documents, generated at seeds seed*sessions+j: one
// 50-app session varies with its seed far more than the machine's noise,
// so a run measures several.
type denseSession struct {
	gen                  scenario.GenConfig
	sessions             int
	durationMS, warmupMS int64
	seed                 uint64
	docs                 []string
}

func (w *denseSession) name() string { return "dense-session" }

func (w *denseSession) prepare(dir string, seed uint64) error {
	w.seed = seed
	w.docs = w.docs[:0]
	for j := 0; j < w.sessions; j++ {
		g := w.gen
		g.Seed = seed*uint64(w.sessions) + uint64(j)
		data, err := scenario.Encode(scenario.Generate(g))
		if err != nil {
			return err
		}
		doc := filepath.Join(dir, fmt.Sprintf("dense-session-%d.json", j))
		if err := os.WriteFile(doc, data, 0o644); err != nil {
			return err
		}
		w.docs = append(w.docs, doc)
	}
	return nil
}

func (w *denseSession) inputs() int { return w.sessions }

func (w *denseSession) args(input int, _ string) []string {
	return append([]string{"scenario", "-file", w.docs[input]}, durationArgs(w.seed, w.durationMS, w.warmupMS)...)
}

// statsReps repeats each collector query so one span is long enough to time.
const statsReps = 5

func (w *denseSession) inproc(rec *recorder) (*outcome, error) {
	var results []*core.Result
	for _, doc := range w.docs {
		s := rec.begin("scenario.Decode", "", 0)
		data, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		sc, err := scenario.Decode(data)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", doc, err)
		}
		s = rec.begin("core.RunScenarioDef", sc.Name, rec.trace())
		r, err := core.RunScenarioDef(sc, config(w.seed, w.durationMS, w.warmupMS))
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("core.RunScenarioDef %s: %w", sc.Name, err)
		}
		s = rec.begin("stats.Fingerprint", "", 0)
		for i := 0; i < statsReps; i++ {
			r.Stats.Fingerprint()
		}
		rec.end(s)
		s = rec.begin("stats.ByProcess", "", 0)
		for i := 0; i < statsReps; i++ {
			r.Stats.ByProcess()
		}
		rec.end(s)
		results = append(results, r)
	}
	o := &outcome{counts: sumCounts(results)}
	for _, r := range results {
		o.totals = append(o.totals, r.Stats.Total())
	}
	return o, nil
}

// printed reads the session's total refs from its matrix row: the row
// starts with the generated scenario's name, and the fifth field is the
// total.
func (w *denseSession) printed(stdout []byte) (string, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) > 4 && strings.HasPrefix(f[0], "gen-s") {
			return f[4], nil
		}
	}
	return "", fmt.Errorf("no scenario matrix row in output")
}

func (w *denseSession) expected(input int, ref *outcome) string {
	return strconv.FormatUint(ref.totals[input], 10)
}

// fleetChaos is `agave fleet` over many short generated chaos sessions,
// with worker subprocesses and a fresh fsync'd journal per pass.
type fleetChaos struct {
	sessions             int
	gen                  scenario.GenConfig
	bench                string
	workers, shardSize   int
	durationMS, warmupMS int64
	seed                 uint64
	dir                  string
}

func (w *fleetChaos) name() string { return "fleet-chaos" }

func (w *fleetChaos) prepare(dir string, seed uint64) error {
	w.seed, w.dir = seed, dir
	return nil
}

func (w *fleetChaos) inputs() int { return 1 }

func (w *fleetChaos) args(_ int, passDir string) []string {
	a := []string{"fleet", "-workers", strconv.Itoa(w.workers), "-shard-size", strconv.Itoa(w.shardSize),
		"-checkpoint", filepath.Join(passDir, "fleet.ckpt"), "-bench", w.bench,
		"-gen-scenarios", strconv.Itoa(w.sessions), "-gen-seed", strconv.FormatUint(w.seed, 10),
		"-gen-apps", strconv.Itoa(w.gen.Apps), "-gen-faults", strconv.Itoa(w.gen.Faults),
		"-gen-inputs", strconv.Itoa(w.gen.Inputs), "-gen-pressure", strconv.Itoa(w.gen.Pressure)}
	return append(a, durationArgs(w.seed, w.durationMS, w.warmupMS)...)
}

// plan builds the fleet job exactly as the CLI does for args: the same
// plan, engine config and shard size give the same plan hash.
func (w *fleetChaos) plan(rec *recorder) (*fleet.Spec, suite.Plan, error) {
	s := rec.begin("scenario.Generate", "", 0)
	set := make([]*scenario.Scenario, w.sessions)
	for i := range set {
		g := w.gen
		g.Seed = w.seed + uint64(i)
		set[i] = scenario.Generate(g)
	}
	rec.end(s)
	plan := suite.Plan{Benchmarks: []string{w.bench}, ScenarioSet: set,
		Seeds: []uint64{w.seed}, Ablations: []suite.Ablation{suite.Baseline}}
	spec, err := fleetSpec(config(w.seed, w.durationMS, w.warmupMS), plan, w.shardSize)
	return spec, plan, err
}

func fleetSpec(cfg core.Config, plan suite.Plan, shardSize int) (*fleet.Spec, error) {
	wp, err := fleet.NewWirePlan(plan)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	return &fleet.Spec{Config: raw, Plan: wp, ShardSize: shardSize}, nil
}

// inproc is the `-workers 0` reference: every spec runs here, shard by
// shard, through the fleet Aggregator and an fsync'd Checkpoint.
func (w *fleetChaos) inproc(rec *recorder) (*outcome, error) {
	spec, plan, err := w.plan(rec)
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return nil, err
	}
	specs := plan.Specs()
	shards := suite.NumShards(len(specs), w.shardSize)
	journal := filepath.Join(w.dir, "reference.ckpt")
	header := fleet.Header{PlanHash: hash, Runs: len(specs), Shards: shards, ShardSize: w.shardSize}
	cp, err := fleet.CreateCheckpoint(journal, header)
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	agg := fleet.NewAggregator(len(specs), w.shardSize, hash)
	o := &outcome{spec: spec}
	var line fleet.Line
	for shard := 0; shard < shards; shard++ {
		lo, hi := suite.ShardRange(len(specs), w.shardSize, shard)
		for _, rs := range specs[lo:hi] {
			s := rec.begin("core.RunOne", rs.UnitName(), rec.trace())
			r, _, err := core.RunOne(cfg, rs)
			rec.end(s)
			if err != nil {
				return nil, fmt.Errorf("core.RunOne %s: %w", rs.UnitName(), err)
			}
			line = report.FleetLine(rs, r)
			raw, err := line.Encode()
			if err != nil {
				return nil, err
			}
			if err := agg.Observe(shard, raw, &line); err != nil {
				return nil, err
			}
			o.fleetLines = append(o.fleetLines, raw)
		}
		p, err := agg.FinishShard(shard, -1, "")
		if err != nil {
			return nil, err
		}
		s := rec.begin("fleet.Checkpoint.Append", "", 0)
		err = cp.Append(p)
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	if err := cp.Close(); err != nil {
		return nil, err
	}
	s := rec.begin("fleet.OpenCheckpoint", "", 0)
	restored, reopened, err := fleet.OpenCheckpoint(journal, header)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	reopened.Close()
	if len(restored) != shards {
		return nil, fmt.Errorf("journal restored %d of %d shards", len(restored), shards)
	}
	rep, err := agg.Report()
	if err != nil {
		return nil, err
	}
	o.fingerprint = rep.Fingerprint
	if o.counts, err = reportCounts(rep); err != nil {
		return nil, err
	}
	o.totals = []uint64{uint64(o.counts["stats.total_refs"])}
	return o, nil
}

// reportCounts sums each count over the report's cells, read from the
// documented JSON wire form so it survives aggregator changes.
func reportCounts(rep *fleet.Report) (map[string]float64, error) {
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	var wire struct {
		Cells []struct {
			Metrics []struct {
				Name string  `json:"name"`
				Sum  float64 `json:"sum"`
			} `json:"metrics"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, err
	}
	counts := make(map[string]float64, len(countNames))
	for _, c := range countNames {
		counts[c.ledger] = 0
	}
	for _, cell := range wire.Cells {
		for _, m := range cell.Metrics {
			for _, c := range countNames {
				if c.metric == m.Name {
					counts[c.ledger] += m.Sum
				}
			}
		}
	}
	return counts, nil
}

// printed reads the report fingerprint, which commits to every per-run
// line and so to every total; expected is the -workers 0 reference's.
func (w *fleetChaos) printed(stdout []byte) (string, error) {
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if fp, ok := strings.CutPrefix(sc.Text(), "fingerprint: "); ok {
			return fp, nil
		}
	}
	return "", fmt.Errorf("no fingerprint line in output")
}

func (w *fleetChaos) expected(_ int, ref *outcome) string { return ref.fingerprint }
