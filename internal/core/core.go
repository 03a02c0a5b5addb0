// Package core is the public face of the reproduction: the unified Agave +
// SPEC benchmark registry, run configuration, and the runner that boots the
// simulated Android stack, executes a workload, and collects the attributed
// reference statistics the paper's figures are built from.
//
// Typical use:
//
//	res, err := core.Run("gallery.mp4.view", core.DefaultConfig())
//	fig3 := stats.NewBreakdown(res.Stats.ByProcess(stats.IFetch))
package core

import (
	"errors"
	"fmt"
	"time"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/spec"
	"agave/internal/stats"
	"agave/internal/suite"
)

// Config controls a benchmark run.
type Config struct {
	// Seed labels the run: plans sweep it as an axis and reports carry
	// it, and it reaches the kernel's configuration. No simulated decision
	// reads it yet — the stack is fully deterministic — so runs that differ
	// only in Seed produce identical counters.
	Seed uint64
	// Duration is the measured simulated interval (after warmup).
	Duration sim.Ticks
	// Warmup runs the stack before measurement begins (Android runs
	// only): boot transients are excluded, as the paper measures steady
	// application execution.
	Warmup sim.Ticks
	// Quantum is the scheduler time slice.
	Quantum sim.Ticks
	// DisableJIT turns the trace JIT off in the benchmark app
	// (ablation A1).
	DisableJIT bool
	// DirtyRectComposition switches SurfaceFlinger to composing only
	// posted surfaces (ablation A3).
	DirtyRectComposition bool
	// MinFreePages tunes the lowmemorykiller's cached-app kill waterline
	// for scenario runs, in physical pages (0 = the 32 MB default). The
	// memory-pressure model applies to multi-app scenarios only;
	// single-app benchmark runs measure an unconstrained machine.
	MinFreePages uint64
}

// DefaultConfig is the configuration the paper-artifact numbers are
// regenerated with (see docs/ARCHITECTURE.md): one simulated second of
// steady state after 300 ms of warmup.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Duration: 1 * sim.Second,
		Warmup:   300 * sim.Millisecond,
		Quantum:  1 * sim.Millisecond,
	}
}

// Result is the outcome of one benchmark run: the full attributed counter
// matrix plus the scalar census metrics reported in the paper's Section III.
type Result struct {
	Benchmark string
	IsSPEC    bool
	Stats     *stats.Collector

	// Processes and Threads are the whole-system census at the end of
	// the run (the paper: 20–34 processes, 32–147 threads per Agave app).
	Processes int
	Threads   int
	// LiveProcesses counts processes still alive at the end of the run;
	// it drops below Processes when the run tears processes down (dexopt
	// exits, scenario kills).
	LiveProcesses int
	// CodeRegions and DataRegions count distinct regions that received
	// instruction and data references (the paper: 42–55 and 32–104 per
	// app).
	CodeRegions int
	DataRegions int

	Checksum uint64 // SPEC only: the kernel's fold-proof accumulator

	// Session carries the session-level result when the run was a
	// multi-app scenario (nil for benchmark runs): the app roster, event
	// count, and peak live-app census of the run that actually executed.
	Session *scenario.Result
}

// AgaveNames lists the 19 Agave workloads in paper order.
func AgaveNames() []string { return apps.Names() }

// SPECNames lists the six SPEC CPU2006 baselines in paper order.
func SPECNames() []string { return spec.Names() }

// ScenarioNames lists the bundled multi-app scenarios in canonical order.
func ScenarioNames() []string { return scenario.Names() }

// SuiteNames lists every benchmark: 19 Agave then 6 SPEC.
func SuiteNames() []string { return append(AgaveNames(), SPECNames()...) }

// IsSPEC reports whether name is one of the SPEC baselines.
func IsSPEC(name string) bool {
	for _, n := range spec.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes one benchmark by name. A SPEC baseline runs on the bare
// kernel; an Agave workload runs on the booted Android stack, which is
// launched, warmed up, and then measured for cfg.Duration of steady-state
// execution.
func Run(name string, cfg Config) (*Result, error) {
	if err := cfg.check(name); err != nil {
		return nil, err
	}
	if IsSPEC(name) {
		return runSPEC(name, cfg)
	}
	w, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	sys := boot(kernel.Config{Quantum: cfg.Quantum, Seed: cfg.Seed}, cfg)
	k := sys.K
	defer k.Shutdown()
	apps.Launch(sys, w, "benchmark", w.Name, cfg.DisableJIT)
	// Warmup: boot, app launch, first frames.
	warmUp(k, cfg)
	k.Run(cfg.Warmup + cfg.Duration)
	return collect(name, k), nil
}

// runSPEC runs one SPEC baseline on the bare kernel (no Android stack), as
// the paper's comparison points do. The input-read phase is part of the
// profile — it is what makes ata_sff/0 visible in the SPEC bars.
func runSPEC(name string, cfg Config) (*Result, error) {
	b, err := spec.ByName(name)
	if err != nil {
		return nil, err
	}
	k := kernel.New(kernel.Config{Quantum: cfg.Quantum, Seed: cfg.Seed})
	defer k.Shutdown()
	env := spec.Launch(k, b)
	k.Run(cfg.Duration)
	r := collect(name, k)
	r.IsSPEC = true
	r.Checksum = env.Checksum
	return r, nil
}

// RunScenarioDef executes a multi-app scenario: a bundled one
// (scenario.ByName), a document decoded from a scenario file, or generator
// output. The definition and cfg are validated before anything boots, so an
// ill-formed ad-hoc scenario fails cleanly. The session is measured like a
// single-app run — boot, warm up, reset the counters, measure — with the
// timeline scripted across the measured interval, and every reference
// attributed per process. The result's Benchmark field carries the scenario
// name.
func RunScenarioDef(sc *scenario.Scenario, cfg Config) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.check("scenario " + sc.Name); err != nil {
		return nil, err
	}
	// Scenario machines always run the memory-pressure model on the 1 GB
	// device: backgrounded apps can die because the system is out of
	// memory, not only because the timeline says so.
	sys := boot(kernel.Config{
		Quantum:  cfg.Quantum,
		Seed:     cfg.Seed,
		MemPages: kernel.DefaultMemPages,
		MinFree:  kernel.DefaultMinFree(cfg.MinFreePages),
	}, cfg)
	k := sys.K
	defer k.Shutdown()
	// Warmup covers the system boot transient only: no scenario app exists
	// yet, because launches are part of the measured session.
	warmUp(k, cfg)
	s := scenario.Start(sys, sc, cfg.Duration, cfg.DisableJIT)
	k.Run(cfg.Warmup + cfg.Duration)
	session := s.Finish()
	r := collect(sc.Name, k)
	r.Session = session
	return r, nil
}

// check rejects a configuration no run kind can measure: an empty measured
// interval would report all-zero counters as a result. (Ticks are unsigned,
// so a negative warmup cannot be expressed here; the CLI rejects one before
// converting it.) name prefixes the error.
func (cfg Config) check(name string) error {
	if cfg.Duration == 0 {
		return fmt.Errorf("%s: non-positive duration", name)
	}
	return nil
}

// boot creates a kernel from kc and boots the Android stack on it, with
// cfg's composition mode. The caller shuts the kernel down.
func boot(kc kernel.Config, cfg Config) *android.System {
	sys := android.Boot(kernel.New(kc))
	sys.Compositor.DirtyRectOnly = cfg.DirtyRectComposition
	return sys
}

// warmUp runs a booted machine through cfg.Warmup and zeroes its counters,
// so the boot transient stays out of the measurement.
func warmUp(k *kernel.Kernel, cfg Config) {
	k.Run(cfg.Warmup)
	k.Stats.Reset()
}

// collect takes the census of a finished run; every run kind builds its
// Result here.
func collect(name string, k *kernel.Kernel) *Result {
	return &Result{
		Benchmark:     name,
		Stats:         k.Stats,
		Processes:     k.ProcessCount(),
		Threads:       k.ThreadCount(),
		LiveProcesses: k.LiveProcessCount(),
		CodeRegions:   k.Stats.RegionCount(stats.IFetch),
		DataRegions:   k.Stats.RegionCount(stats.DataKinds...),
	}
}

// forSpec derives the run configuration of one plan spec: the spec's seed
// replaces the base seed, and ablation overrides are ORed on top of the base
// flags.
func (cfg Config) forSpec(s suite.RunSpec) Config {
	out := cfg
	out.Seed = s.Seed
	out.DisableJIT = cfg.DisableJIT || s.Ablation.DisableJIT
	out.DirtyRectComposition = cfg.DirtyRectComposition || s.Ablation.DirtyRectComposition
	return out
}

// RunOne executes one plan spec on a fresh simulated machine, with the
// spec's seed and ablation applied on top of base. RunPlan and fleet runs
// both execute specs through it, so a spec run in this process or in a fleet
// worker subprocess yields the bit-identical result a serial plan sweep
// would have produced at the same plan position.
func RunOne(base Config, s suite.RunSpec) (*Result, sim.Ticks, error) {
	cfg := base.forSpec(s)
	var r *Result
	var err error
	switch {
	case s.Scenario && s.Def != nil:
		r, err = RunScenarioDef(s.Def, cfg)
	case s.Scenario:
		var sc *scenario.Scenario
		if sc, err = scenario.ByName(s.Benchmark); err == nil {
			r, err = RunScenarioDef(sc, cfg)
		}
	default:
		r, err = Run(s.Benchmark, cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	// Only SPEC runs skip warmup accounting (they boot no Android stack);
	// Agave and scenario runs include it.
	ticks := cfg.Duration
	if !r.IsSPEC {
		ticks += cfg.Warmup
	}
	return r, ticks, nil
}

// RunPlan executes a full run matrix on the suite dispatch pool — parallel
// bounds the workers (<= 0 means GOMAXPROCS) — and returns the outputs in
// plan order. Each run boots a fresh simulated machine configured from base
// plus the spec's seed and ablation. If any run fails, dispatch stops and
// the first failure in plan order is returned as a *suite.RunError
// alongside the outputs gathered so far.
func RunPlan(base Config, p suite.Plan, parallel int) ([]suite.RunOutput[*Result], error) {
	specs := p.Specs()
	outputs := make([]suite.RunOutput[*Result], len(specs))
	err := suite.Each(len(specs), parallel, func(i int) error {
		start := time.Now() //agave:allow walltime Wall is operator-facing elapsed time, reported alongside the deterministic tick count, never fed back into the simulation
		r, ticks, err := RunOne(base, specs[i])
		outputs[i] = suite.RunOutput[*Result]{
			Spec:   specs[i],
			Result: r,
			Err:    err,
			Wall:   time.Since(start), //agave:allow walltime same display-only measurement as the paired time.Now above
			Ticks:  ticks,
		}
		if err != nil {
			return &suite.RunError{Spec: specs[i], Err: err}
		}
		return nil
	})
	return outputs, err
}

// SuiteMetrics extracts the scalar metrics the suite summaries aggregate
// across seeds: total references, census counts, and (SPEC only) the
// fold-proof checksum.
func SuiteMetrics(r *Result) map[string]float64 {
	m := map[string]float64{
		"total_refs":   float64(r.Stats.Total()),
		"processes":    float64(r.Processes),
		"threads":      float64(r.Threads),
		"code_regions": float64(r.CodeRegions),
		"data_regions": float64(r.DataRegions),
	}
	if r.IsSPEC {
		m["checksum"] = float64(r.Checksum)
	}
	if r.Session != nil {
		m["lmk_kills"] = float64(r.Session.LMKKills)
		m["trims"] = float64(r.Session.Trims)
		m["input_events"] = float64(r.Session.InputEvents)
		m["input_dispatched"] = float64(r.Session.InputDispatched)
		m["input_dropped"] = float64(r.Session.InputDropped)
		m["faults_injected"] = float64(r.Session.FaultsInjected)
		m["faults_detected"] = float64(r.Session.FaultsDetected)
		m["faults_recovered"] = float64(r.Session.FaultsRecovered)
		m["anrs"] = float64(r.Session.ANRs)
	}
	return m
}

// RunSuite runs the named benchmarks (all of them when names is empty)
// serially and returns results in order. Each run uses a fresh simulated
// machine.
func RunSuite(cfg Config, names ...string) ([]*Result, error) {
	if len(names) == 0 {
		names = SuiteNames()
	}
	plan := suite.Plan{Benchmarks: names, Seeds: []uint64{cfg.Seed}}
	outputs, err := RunPlan(cfg, plan, 1)
	if err != nil {
		var re *suite.RunError
		if errors.As(err, &re) {
			return nil, fmt.Errorf("core: running %s: %w", re.Spec.Benchmark, re.Err)
		}
		return nil, err
	}
	out := make([]*Result, len(outputs))
	for i, o := range outputs {
		out[i] = o.Result
	}
	return out, nil
}
