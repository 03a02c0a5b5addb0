// Command agave runs the Agave reproduction: it executes the 19 Agave
// workloads and the 6 SPEC CPU2006 baselines on the simulated Android stack
// and regenerates the paper's figures and tables.
//
// Usage:
//
//	agave list                         # benchmark inventory
//	agave run <benchmark> [flags]      # one benchmark, summary breakdowns
//	agave suite [flags]                # parallel run matrix (see below)
//	agave scenario -list               # bundled multi-app scenario library
//	agave scenario <name...> [flags]   # scripted multi-app sessions
//	agave scenario -file <path>        # run a JSON scenario document
//	agave scenario -export <name>      # dump a bundled scenario as canonical JSON
//	agave fleet [flags]                # process-sharded suite matrix (see below)
//	agave fig1|fig2|fig3|fig4 [flags]  # regenerate a figure (table/csv/bars)
//	agave table1 [flags]               # regenerate Table I
//	agave scalars [flags]              # Section-III census metrics
//	agave all [flags]                  # everything above in one pass
//
// Each subcommand parses only the flags it reads; any other flag is a usage
// error (exit 2), and 'agave <command> -h' lists that command's flags. Every
// subcommand but list reads the simulation flags:
//
//	-duration 1000   measured milliseconds of simulated time
//	-warmup 300      warmup milliseconds before measurement (Android runs)
//	-seed 1          simulation seed
//	-nojit           disable the trace JIT in the app under test
//	-dirtyrect       SurfaceFlinger composes only posted surfaces
//
// run reads nothing else: its benchmark is the positional argument. The
// paper subcommands (fig1-fig4, table1, scalars, all) add:
//
//	-bench a,b,c     restrict the benchmark set (default: full suite)
//	-format table    figure output: table, csv, bars (fig1-fig4 and all)
//
// The suite subcommand executes the cross product of benchmarks × seeds ×
// ablations on a bounded worker pool; results are emitted in plan order and
// are bit-identical to a serial run of the same plan. It adds:
//
//	-bench a,b,c       restrict the benchmark axis (default: full suite)
//	-parallel 0        worker pool size (0 = all cores, 1 = serial)
//	-seeds 1,2,3       seed axis of the run matrix (default: -seed; no repeats)
//	-ablations         add the nojit and dirtyrect ablations to the matrix
//	-scenarios a,b     add bundled scenarios to the matrix as a plan axis
//	-scenario-dir d    add every *.json scenario document in d to the matrix
//	-gen-scenarios N   add N generated scenarios (seeds -gen-seed..+N-1);
//	                   -gen-seed/-gen-apps/-gen-events/-gen-pressure/
//	                   -gen-inputs/-gen-faults set the knobs
//	-minfree N         cached-app kill waterline of scenario cells in pages
//	-json              emit plan, per-run rows, and summaries as JSON
//
// The fleet subcommand executes the same matrix sharded across worker
// subprocesses with constant-memory streaming aggregation — the
// million-session execution path (see docs/FLEET.md). The report of any
// worker count, including a checkpoint-resumed run, is byte-identical to
// the serial in-process run of the same plan, and its fingerprint commits
// to every per-run result line. It takes the suite flags but -parallel,
// and adds:
//
//	-workers 0         worker subprocesses (0 = serial in-process)
//	-shard-size 8      plan specs per shard (shard geometry, never concurrency)
//	-checkpoint path   journal completed shards; an existing journal resumes
//	-worker            internal: run one shard from a stdin envelope
//
// The scenario subcommand runs scripted multi-app sessions: apps launch,
// switch, background, and die on a deterministic timeline while every
// reference is attributed per process. Scenario machines run the
// memory-pressure model: a global physical-page budget, onTrimMemory
// broadcasts when free pages run low, and a lowmemorykiller that evicts
// processes by oom_adj score — so Pressure events in a timeline produce
// emergent kills the report's lmk columns account for. Timelines can also
// inject input gestures (tap, key, swipe) that travel through
// system_server's InputDispatcher to the focused app's looper; dispatched
// and dropped counts plus per-app dispatch-latency statistics surface in
// the report's input columns. Fault events (faultBinder, crashService,
// killMediaserver, corruptParcel — see docs/SCENARIOS.md) drive the
// fault-injection plane, and the report's finj/fdet/frec/anrs columns carry
// the dependability outcome, ANRs courtesy of the AnrWatchdog. Scenario
// names are positional and may interleave with the flags, which are:
//
//	-list            list the bundled scenario library and exit
//	-file path       run a scenario decoded from a JSON scenario document
//	-export name     print a bundled scenario as canonical JSON and exit
//	-minfree N       cached-app kill waterline in pages (0 = 8192 = 32 MB)
//	-parallel 0      worker pool size (0 = all cores, 1 = serial)
//	-seeds 1,2,3     seed axis of the run matrix (default: -seed; no repeats)
//	-ablations       add the nojit and dirtyrect ablations to the matrix
//	-json            emit the scenario report as JSON
//
// Scenario reports carry no wall-clock columns, so the same plan and seed
// emit byte-identical bytes at any -parallel value — and a file-loaded copy
// of a bundled scenario (agave scenario -export commute | agave scenario
// -file /dev/stdin) reproduces the bundled report byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"agave/internal/core"
	"agave/internal/report"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main is the testable entry point: it runs one CLI invocation against the
// given streams and returns the process exit code (0 ok, 1 run failure,
// 2 usage error). Each subcommand parses its own flag set holding exactly
// the flags it reads, so a flag of another subcommand is a usage error.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "list":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		fs.SetOutput(stderr)
		if err := fs.Parse(args); err != nil {
			return 2
		}
		fmt.Fprintln(stdout, "Agave workloads:")
		for _, n := range core.AgaveNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		fmt.Fprintln(stdout, "SPEC CPU2006 baselines:")
		for _, n := range core.SPECNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	case "run", "fig1", "fig2", "fig3", "fig4", "table1", "scalars", "all":
		return paperCmd(stdout, stderr, cmd, args)
	case "suite":
		return suiteCmd(stdout, stderr, args)
	case "scenario":
		return scenarioCmd(stdout, stderr, args)
	case "fleet":
		return fleetCmd(stdout, stderr, args)
	}
	usage(stderr)
	return 2
}

// newFlags returns subcommand cmd's flag set with the flags every simulating
// subcommand reads registered on it, plus the function that resolves them,
// after Parse, into the engine config. The resolver prints the diagnostic
// and reports false when the flags select no valid config.
func newFlags(cmd string, stderr io.Writer) (*flag.FlagSet, func() (core.Config, bool)) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	durationMS := fs.Int64("duration", 1000, "measured simulated milliseconds")
	warmupMS := fs.Int64("warmup", 300, "warmup simulated milliseconds")
	seed := fs.Uint64("seed", 1, "simulation seed")
	noJIT := fs.Bool("nojit", false, "disable the trace JIT")
	dirtyRect := fs.Bool("dirtyrect", false, "dirty-rect composition")
	return fs, func() (core.Config, bool) {
		// An empty or negative measured interval is a configuration
		// mistake, never a measurement: fail loudly instead of emitting
		// all-zero counters.
		if *durationMS <= 0 {
			fmt.Fprintf(stderr, "agave %s: -duration must be a positive number of milliseconds (got %d)\n", cmd, *durationMS)
			return core.Config{}, false
		}
		if *warmupMS < 0 {
			fmt.Fprintf(stderr, "agave %s: -warmup must not be negative (got %d)\n", cmd, *warmupMS)
			return core.Config{}, false
		}
		return core.Config{
			Seed:                 *seed,
			Duration:             sim.Ticks(*durationMS) * sim.Millisecond,
			Warmup:               sim.Ticks(*warmupMS) * sim.Millisecond,
			Quantum:              sim.Millisecond,
			DisableJIT:           *noJIT,
			DirtyRectComposition: *dirtyRect,
		}, true
	}
}

// parseFlags parses args into fs. Stray positionals are a usage error, not
// something to silently run without: `agave suite countdown.main` must not
// sweep all 25 benchmarks because the user skipped -bench.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "agave %s: unexpected argument %q", fs.Name(), fs.Arg(0))
		if fs.Lookup("bench") != nil {
			fmt.Fprint(stderr, " (benchmarks are selected with -bench)")
		}
		fmt.Fprintln(stderr)
		return false
	}
	return true
}

// isSet reports whether the flag name was given on the command line, even
// at its default value.
func isSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

const benchUsage = "comma-separated benchmark subset"

// paperCmd executes run and the paper subcommands (fig1-fig4, table1,
// scalars, all): simulate the benchmarks — run's positional one, or the
// -bench subset, by default the full suite — and render the breakdowns,
// figures, tables, or census.
func paperCmd(stdout, stderr io.Writer, cmd string, args []string) int {
	fs, config := newFlags(cmd, stderr)
	var names []string
	var benchList string
	format := "table"
	switch cmd {
	case "run":
		if len(args) == 0 {
			fmt.Fprintln(stderr, "agave run: benchmark name required")
			return 2
		}
		names, args = args[:1], args[1:]
	default:
		fs.StringVar(&benchList, "bench", "", benchUsage)
		if cmd != "table1" && cmd != "scalars" {
			fs.StringVar(&format, "format", format, "figure output: table, csv, bars")
		}
	}
	if !parseFlags(fs, args, stderr) {
		return 2
	}
	cfg, ok := config()
	if !ok {
		return 2
	}
	if benchList != "" {
		names = strings.Split(benchList, ",")
	}

	results, err := core.RunSuite(cfg, names...)
	if err != nil {
		fmt.Fprintln(stderr, "agave:", err)
		return 1
	}

	emit := func(fig report.Figure) {
		switch format {
		case "csv":
			report.WriteCSV(stdout, fig)
		case "bars":
			report.WriteBars(stdout, fig)
		default:
			report.WriteTable(stdout, fig)
		}
		fmt.Fprintln(stdout)
	}

	switch cmd {
	case "run":
		r := results[0]
		fmt.Fprintf(stdout, "%s: %d total refs, %d processes, %d threads, %d code regions, %d data regions\n",
			r.Benchmark, r.Stats.Total(), r.Processes, r.Threads, r.CodeRegions, r.DataRegions)
		fmt.Fprintln(stdout, "\nTop instruction regions:")
		for _, row := range stats.NewBreakdown(r.Stats.ByRegion(stats.IFetch)).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop data regions:")
		for _, row := range stats.NewBreakdown(r.Stats.ByRegion(stats.DataKinds...)).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop processes (all references):")
		for _, row := range stats.NewBreakdown(r.Stats.ByProcess()).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Fprintln(stdout, "\nTop threads (all references):")
		for _, row := range stats.NewBreakdown(r.Stats.ByThread()).TopN(10) {
			fmt.Fprintf(stdout, "  %-36s %6.2f%%\n", row.Name, row.Share*100)
		}
	case "fig1":
		emit(report.Fig1(results))
	case "fig2":
		emit(report.Fig2(results))
	case "fig3":
		emit(report.Fig3(results))
	case "fig4":
		emit(report.Fig4(results))
	case "table1":
		report.WriteTable1(stdout, report.Table1(results), 6)
	case "scalars":
		report.WriteScalars(stdout, report.Scalars(results))
		code, data := report.SuiteRegionCounts(results)
		fmt.Fprintf(stdout, "\nAgave suite-wide: %d instruction regions, %d data regions\n", code, data)
	case "all":
		emit(report.Fig1(results))
		emit(report.Fig2(results))
		emit(report.Fig3(results))
		emit(report.Fig4(results))
		report.WriteTable1(stdout, report.Table1(results), 6)
		fmt.Fprintln(stdout)
		report.WriteScalars(stdout, report.Scalars(results))
		code, data := report.SuiteRegionCounts(results)
		fmt.Fprintf(stdout, "\nAgave suite-wide: %d instruction regions, %d data regions\n", code, data)
	}
	return 0
}

// parseSeeds resolves the -seeds axis, falling back to the single -seed. A
// repeated seed is rejected: its runs would alias, rendering identical rows
// under a summary that counts them twice.
func parseSeeds(stderr io.Writer, cmd string, base uint64, seedList string) ([]uint64, bool) {
	seeds := []uint64{base}
	if seedList == "" {
		return seeds, true
	}
	seeds = nil
	for _, f := range strings.Split(seedList, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "agave %s: bad -seeds entry %q: %v\n", cmd, f, err)
			return nil, false
		}
		if slices.Contains(seeds, v) {
			fmt.Fprintf(stderr, "agave %s: bad -seeds entry %q: seed %d repeated\n", cmd, f, v)
			return nil, false
		}
		seeds = append(seeds, v)
	}
	return seeds, true
}

// uniqueScenarioAxis verifies scenario names are unique across a plan's
// whole scenario axis — named bundled scenarios plus the ad-hoc set.
func uniqueScenarioAxis(stderr io.Writer, cmd string, names []string, set []*scenario.Scenario) bool {
	all := append([]string(nil), names...)
	for _, sc := range set {
		all = append(all, sc.Name)
	}
	return uniqueAxis(stderr, cmd, "scenario", all)
}

// uniqueAxis verifies the names along one plan axis are unique. Two cells
// sharing a name would render indistinguishable rows (the text matrix
// carries no provenance column) and alias in summaries.
func uniqueAxis(stderr io.Writer, cmd, axis string, names []string) bool {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			fmt.Fprintf(stderr, "agave %s: duplicate %s name %q on the %s axis\n", cmd, axis, n, axis)
			return false
		}
		seen[n] = true
	}
	return true
}

// matrixFlags are the run-matrix flags of the suite, scenario and fleet
// subcommands.
type matrixFlags struct {
	minFree   uint64
	seedList  string
	ablations bool
	asJSON    bool
}

func (m *matrixFlags) register(fs *flag.FlagSet) {
	fs.Uint64Var(&m.minFree, "minfree", 0, "lowmemorykiller cached-kill waterline in pages (scenario runs; 0 = default)")
	fs.StringVar(&m.seedList, "seeds", "", "comma-separated seed axis of the run matrix")
	fs.BoolVar(&m.ablations, "ablations", false, "add nojit and dirtyrect ablations to the matrix")
	fs.BoolVar(&m.asJSON, "json", false, "emit the report as JSON")
}

// config resolves the engine config of a matrix subcommand: the simulation
// flags through base, plus -minfree.
func (m *matrixFlags) config(cmd string, stderr io.Writer, base func() (core.Config, bool)) (core.Config, bool) {
	cfg, ok := base()
	if !ok {
		return cfg, false
	}
	// -ablations sweeps base/nojit/dirtyrect as matrix cells; a base
	// config that already forces one of those flags would make the cell
	// labels lie (the "base" row would really be nojit).
	if m.ablations && (cfg.DisableJIT || cfg.DirtyRectComposition) {
		fmt.Fprintf(stderr, "agave %s: -ablations cannot be combined with -nojit or -dirtyrect (the ablation axis already sweeps them)\n", cmd)
		return cfg, false
	}
	cfg.MinFreePages = m.minFree
	return cfg, true
}

// genFlags bundles the generated-scenario knobs of the suite and fleet
// subcommands.
type genFlags struct {
	n        int
	seed     uint64
	apps     int
	events   int
	pressure int
	inputs   int
	faults   int
}

// planFlags bundles the matrix-building flags shared by the suite and fleet
// subcommands: both subcommands resolve an identical plan from identical
// flags, so a fleet sweep always has an exact serial counterpart.
type planFlags struct {
	matrixFlags
	benchList    string
	scenarioList string
	scenarioDir  string
	gen          genFlags
}

func (pf *planFlags) register(fs *flag.FlagSet) {
	pf.matrixFlags.register(fs)
	fs.StringVar(&pf.benchList, "bench", "", benchUsage)
	fs.StringVar(&pf.scenarioList, "scenarios", "", "comma-separated scenarios to add to the matrix")
	fs.StringVar(&pf.scenarioDir, "scenario-dir", "", "add every *.json scenario in a directory to the matrix")
	fs.IntVar(&pf.gen.n, "gen-scenarios", 0, "add N generated scenarios to the matrix (seeds gen-seed..gen-seed+N-1)")
	fs.Uint64Var(&pf.gen.seed, "gen-seed", 1, "generation seed of the first generated scenario")
	fs.IntVar(&pf.gen.apps, "gen-apps", 0, "apps per generated scenario (0 = 10, the concurrently-live peak)")
	fs.IntVar(&pf.gen.events, "gen-events", 0, "timeline events per generated scenario (0 = 4 per app)")
	fs.IntVar(&pf.gen.pressure, "gen-pressure", 0, "memory-pressure knob of generated scenarios (0 = none)")
	fs.IntVar(&pf.gen.inputs, "gen-inputs", 0, "input gestures (tap/key/swipe) per generated scenario (0 = none)")
	fs.IntVar(&pf.gen.faults, "gen-faults", 0, "fault-injection events per generated scenario (0 = none)")
}

// config is matrixFlags.config for the parsed plan flags of fs.
func (pf *planFlags) config(fs *flag.FlagSet, stderr io.Writer, base func() (core.Config, bool)) (core.Config, bool) {
	cfg, ok := pf.matrixFlags.config(fs.Name(), stderr, base)
	if !ok {
		return cfg, false
	}
	// A generator knob without -gen-scenarios would configure zero
	// generated sessions: reject the forgotten count, don't ignore the
	// knobs.
	if pf.gen.n == 0 {
		for _, f := range []string{"gen-seed", "gen-apps", "gen-events", "gen-pressure", "gen-inputs", "gen-faults"} {
			if isSet(fs, f) {
				fmt.Fprintf(stderr, "agave %s: -%s requires -gen-scenarios N\n", fs.Name(), f)
				return cfg, false
			}
		}
	}
	return cfg, true
}

// buildPlan resolves the shared matrix flags into a run plan. On failure it
// reports (zero plan, exit code, false) with the diagnostic already printed.
func buildPlan(stderr io.Writer, cmd string, cfg core.Config, pf planFlags) (suite.Plan, int, bool) {
	names := core.SuiteNames()
	if pf.benchList != "" {
		names = strings.Split(pf.benchList, ",")
	}
	known := make(map[string]bool)
	for _, n := range core.SuiteNames() {
		known[n] = true
	}
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if !known[names[i]] {
			fmt.Fprintf(stderr, "agave %s: unknown benchmark %q\n", cmd, names[i])
			return suite.Plan{}, 1, false
		}
	}
	if !uniqueAxis(stderr, cmd, "benchmark", names) {
		return suite.Plan{}, 1, false
	}
	var scenarios []string
	if pf.scenarioList != "" {
		knownSc := make(map[string]bool)
		for _, n := range core.ScenarioNames() {
			knownSc[n] = true
		}
		for _, n := range strings.Split(pf.scenarioList, ",") {
			n = strings.TrimSpace(n)
			if !knownSc[n] {
				fmt.Fprintf(stderr, "agave %s: unknown scenario %q\n", cmd, n)
				return suite.Plan{}, 1, false
			}
			scenarios = append(scenarios, n)
		}
	}
	// Ad-hoc scenario axes: every *.json document of -scenario-dir, then
	// -gen-scenarios generated sessions at consecutive generation seeds.
	// Names must stay unique across the whole scenario axis — two cells
	// with one name would alias in reports and summaries.
	gen := pf.gen
	var set []*scenario.Scenario
	if pf.scenarioDir != "" {
		loaded, err := scenario.LoadDir(pf.scenarioDir)
		if err != nil {
			fmt.Fprintf(stderr, "agave %s: %v\n", cmd, err)
			return suite.Plan{}, 1, false
		}
		set = append(set, loaded...)
	}
	if gen.n < 0 {
		fmt.Fprintf(stderr, "agave %s: -gen-scenarios must not be negative (got %d)\n", cmd, gen.n)
		return suite.Plan{}, 2, false
	}
	// The sibling knobs validate the same way: zero means "use the
	// default", but a negative value is a typo, not a request.
	if gen.apps < 0 || gen.events < 0 || gen.pressure < 0 || gen.inputs < 0 || gen.faults < 0 {
		fmt.Fprintf(stderr, "agave %s: -gen-apps, -gen-events, -gen-pressure, -gen-inputs, and -gen-faults must not be negative (got %d/%d/%d/%d/%d)\n",
			cmd, gen.apps, gen.events, gen.pressure, gen.inputs, gen.faults)
		return suite.Plan{}, 2, false
	}
	for i := 0; i < gen.n; i++ {
		set = append(set, scenario.Generate(scenario.GenConfig{
			Seed:     gen.seed + uint64(i),
			Apps:     gen.apps,
			Events:   gen.events,
			Pressure: gen.pressure,
			Inputs:   gen.inputs,
			Faults:   gen.faults,
		}))
	}
	if !uniqueScenarioAxis(stderr, cmd, scenarios, set) {
		return suite.Plan{}, 1, false
	}
	seeds, ok := parseSeeds(stderr, cmd, cfg.Seed, pf.seedList)
	if !ok {
		return suite.Plan{}, 2, false
	}
	plan := suite.Plan{Benchmarks: names, Scenarios: scenarios, ScenarioSet: set,
		Seeds: seeds, Ablations: []suite.Ablation{suite.Baseline}}
	if pf.ablations {
		plan.Ablations = suite.DefaultAblations
	}
	return plan, 0, true
}

// suiteCmd executes the suite subcommand: build the run matrix — benchmarks,
// named scenarios, directory-loaded scenario files, and generated scenarios
// are all plan axes — execute it on the worker pool, and render per-run rows
// plus cross-seed summaries.
func suiteCmd(stdout, stderr io.Writer, args []string) int {
	fs, base := newFlags("suite", stderr)
	var pf planFlags
	pf.register(fs)
	parallel := fs.Int("parallel", 0, "worker pool size (0 = all cores)")
	if !parseFlags(fs, args, stderr) {
		return 2
	}
	cfg, ok := pf.config(fs, stderr, base)
	if !ok {
		return 2
	}
	plan, code, ok := buildPlan(stderr, "suite", cfg, pf)
	if !ok {
		return code
	}
	outputs, err := core.RunPlan(cfg, plan, *parallel)
	if err != nil {
		fmt.Fprintln(stderr, "agave suite:", err)
		return 1
	}
	if pf.asJSON {
		if err := report.WriteSuiteJSON(stdout, plan, *parallel, outputs); err != nil {
			fmt.Fprintln(stderr, "agave suite:", err)
			return 1
		}
		return 0
	}
	units := fmt.Sprintf("%d benchmarks", len(plan.Benchmarks))
	if n := len(plan.Scenarios) + len(plan.ScenarioSet); n > 0 {
		units += fmt.Sprintf(" + %d scenarios", n)
	}
	fmt.Fprintf(stdout, "suite: %d runs (%s × %d seeds × %d ablations)\n\n",
		plan.Size(), units, len(plan.Seeds), len(plan.Ablations))
	report.WriteMatrix(stdout, outputs)
	if len(plan.Seeds) > 1 || len(plan.Ablations) > 1 {
		fmt.Fprintln(stdout)
		report.WriteSummaries(stdout, outputs)
	}
	return 0
}

// scenarioCmd executes the scenario subcommand: list the bundled library,
// export a bundled scenario as its canonical JSON document, or run the named
// (and/or file-loaded) scripted sessions through the suite engine and render
// the wall-clock-free scenario matrix (or JSON document). Output bytes
// depend only on the plan and seeds — never on -parallel — and a file-loaded
// copy of a bundled scenario renders a byte-identical default report at the
// same seed (provenance appears only in the JSON document's source field).
func scenarioCmd(stdout, stderr io.Writer, args []string) int {
	fs, base := newFlags("scenario", stderr)
	var m matrixFlags
	m.register(fs)
	parallel := fs.Int("parallel", 0, "worker pool size (0 = all cores)")
	list := fs.Bool("list", false, "list the bundled scenario library")
	filePath := fs.String("file", "", "run a scenario loaded from a JSON scenario document")
	exportName := fs.String("export", "", "print a bundled scenario as its canonical JSON document and exit")
	// Scenario names are positional and may interleave with flags
	// (`agave scenario -parallel 8 commute -json`): flag.Parse stops at
	// the first positional, so keep alternating between collecting a
	// name and re-parsing the remainder.
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	for rest := fs.Args(); len(rest) > 0; rest = fs.Args() {
		// A bare "-" is a positional to the flag package too;
		// re-parsing it would never make progress.
		if strings.HasPrefix(rest[0], "-") && rest[0] != "-" {
			if err := fs.Parse(rest); err != nil {
				return 2
			}
			continue
		}
		names = append(names, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return 2
		}
	}
	cfg, ok := m.config("scenario", stderr, base)
	if !ok {
		return 2
	}
	// -export and -list print a document or listing and exit; combining
	// either with names or -file would silently skip the requested runs.
	if *exportName != "" && (len(names) > 0 || *filePath != "") {
		fmt.Fprintln(stderr, "agave scenario: -export cannot be combined with scenario names or -file")
		return 2
	}
	if *list && (len(names) > 0 || isSet(fs, "file") || isSet(fs, "export")) {
		fmt.Fprintln(stderr, "agave scenario: -list cannot be combined with scenario names, -file, or -export")
		return 2
	}
	if *list {
		report.WriteScenarioList(stdout, scenario.Library())
		return 0
	}
	if *exportName != "" {
		sc, err := scenario.ByName(*exportName)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		doc, err := scenario.Encode(sc)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}
	var set []*scenario.Scenario
	if *filePath != "" {
		sc, err := scenario.FromFile(*filePath)
		if err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
		set = append(set, sc)
	}
	if len(names) == 0 && len(set) == 0 {
		fmt.Fprintln(stderr, "agave scenario: scenario name required (or -list, -file, -export)")
		return 2
	}
	for _, n := range names {
		if _, err := scenario.ByName(n); err != nil {
			fmt.Fprintf(stderr, "agave scenario: %v\n", err)
			return 1
		}
	}
	if !uniqueScenarioAxis(stderr, "scenario", names, set) {
		return 1
	}
	seeds, ok := parseSeeds(stderr, "scenario", cfg.Seed, m.seedList)
	if !ok {
		return 2
	}
	plan := suite.Plan{Scenarios: names, ScenarioSet: set, Seeds: seeds,
		Ablations: []suite.Ablation{suite.Baseline}}
	if m.ablations {
		plan.Ablations = suite.DefaultAblations
	}
	outputs, err := core.RunPlan(cfg, plan, *parallel)
	if err != nil {
		fmt.Fprintln(stderr, "agave scenario:", err)
		return 1
	}
	if m.asJSON {
		if err := report.WriteScenarioJSON(stdout, plan, outputs); err != nil {
			fmt.Fprintln(stderr, "agave scenario:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "scenario: %d runs (%d scenarios × %d seeds × %d ablations)\n\n",
		plan.Size(), len(plan.Scenarios)+len(plan.ScenarioSet), len(plan.Seeds), len(plan.Ablations))
	report.WriteScenarioMatrix(stdout, outputs)
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: agave <command> [flags]

commands:
  list      benchmark inventory
  run       run one benchmark and print its breakdowns
  suite     run a benchmark × seed × ablation matrix on a worker pool
  scenario  run scripted multi-app sessions (-list for the library)
  fleet     run the matrix sharded across worker subprocesses (docs/FLEET.md)
  fig1      instruction references by VMA region   (paper Fig. 1)
  fig2      data references by VMA region          (paper Fig. 2)
  fig3      instruction references by process      (paper Fig. 3)
  fig4      data references by process             (paper Fig. 4)
  table1    thread ranking                         (paper Table I)
  scalars   region/process/thread census           (paper Sec. III)
  all       everything

flags (each command rejects any other; 'agave <command> -h' explains them):
  every command but list   -duration -warmup -seed -nojit -dirtyrect
  run                      nothing else; the benchmark is the positional argument
  fig1-fig4, all           -bench -format
  table1, scalars          -bench
  suite                    -bench -scenarios -scenario-dir -gen-scenarios -gen-seed
                           -gen-apps -gen-events -gen-pressure -gen-inputs -gen-faults
                           -seeds -ablations -minfree -parallel -json
  scenario                 -list -file -export -seeds -ablations -minfree -parallel -json
  fleet                    the suite flags but -parallel, plus -workers -shard-size
                           -checkpoint -worker`)
}
