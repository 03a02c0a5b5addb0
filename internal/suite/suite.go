// Package suite is the parallel suite-execution engine of the Agave
// reproduction. It shards benchmark runs across a bounded pool of worker
// goroutines — each run boots its own simulated machine, so runs are
// share-nothing — while preserving the determinism guarantee of serial
// execution: results land at their plan positions, bit-identical to a
// one-worker run, regardless of completion order.
//
// A sweep is expressed as a Plan: the cross product of benchmark names ×
// seeds × ablation configurations, expanded into an ordered []RunSpec. Each
// is the one dispatch pool: core.RunPlan runs specs through it (this package
// deliberately does not import core, so core can delegate here without an
// import cycle) and the fleet coordinator runs shards through it. NumShards
// and ShardRange fix the fleet's shard geometry.
package suite

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"agave/internal/scenario"
	"agave/internal/sim"
)

// Ablation is one configuration axis of a plan: a named set of overrides
// applied on top of the base run configuration. The zero value (empty name,
// no overrides) is the baseline.
type Ablation struct {
	// Name labels the ablation in reports ("base" when empty).
	Name string
	// DisableJIT turns the trace JIT off (paper ablation A1).
	DisableJIT bool
	// DirtyRectComposition switches SurfaceFlinger to composing only
	// posted surfaces (paper ablation A3).
	DirtyRectComposition bool
}

// Baseline is the no-override ablation every plan starts from.
var Baseline = Ablation{Name: "base"}

// DefaultAblations is the paper's ablation sweep: baseline, JIT off, and
// dirty-rect composition.
var DefaultAblations = []Ablation{
	Baseline,
	{Name: "nojit", DisableJIT: true},
	{Name: "dirtyrect", DirtyRectComposition: true},
}

// Label reports the ablation's display name.
func (a Ablation) Label() string {
	if a.Name == "" {
		return "base"
	}
	return a.Name
}

// Plan is a run matrix: every benchmark and every scenario is run once per
// (seed, ablation) pair. Scenarios are a first-class axis alongside
// benchmarks — a scripted multi-app session shards across the worker pool
// exactly like a single-app run, under the same bit-identity guarantee.
// Empty Seeds defaults to {1}; empty Ablations defaults to {Baseline}.
type Plan struct {
	Benchmarks []string
	// Scenarios names bundled library scenarios.
	Scenarios []string
	// ScenarioSet holds ad-hoc scenario definitions — loaded from files or
	// produced by the generator — that run as plan cells exactly like the
	// named bundled ones: crossed with every seed and ablation, and
	// reported in plan order whatever the worker count.
	ScenarioSet []*scenario.Scenario
	Seeds       []uint64
	Ablations   []Ablation
}

// Size reports how many runs the plan expands to.
func (p Plan) Size() int {
	units := len(p.Benchmarks) + len(p.Scenarios) + len(p.ScenarioSet)
	return units * max(len(p.Seeds), 1) * max(len(p.Ablations), 1)
}

// ScenarioNames flattens the plan's whole scenario axis — named bundled
// scenarios, then the ad-hoc set — in the same order Specs expands it.
// Report writers use this so the JSON plan header can never desynchronize
// from the run rows.
func (p Plan) ScenarioNames() []string {
	if len(p.Scenarios) == 0 && len(p.ScenarioSet) == 0 {
		return nil
	}
	names := make([]string, 0, len(p.Scenarios)+len(p.ScenarioSet))
	names = append(names, p.Scenarios...)
	for _, sc := range p.ScenarioSet {
		names = append(names, sc.Name)
	}
	return names
}

// Specs expands the plan into the deterministic run order: benchmarks
// first, then named scenarios, then the ad-hoc scenario set — each
// unit-major, then seed, then ablation. This order — not completion order —
// is the order results are collected and emitted in.
func (p Plan) Specs() []RunSpec {
	seeds := p.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	ablations := p.Ablations
	if len(ablations) == 0 {
		ablations = []Ablation{Baseline}
	}
	specs := make([]RunSpec, 0, p.Size())
	add := func(name string, isScenario bool, def *scenario.Scenario) {
		for _, s := range seeds {
			for _, a := range ablations {
				specs = append(specs, RunSpec{
					Index:     len(specs),
					Benchmark: name,
					Scenario:  isScenario,
					Def:       def,
					Seed:      s,
					Ablation:  a,
				})
			}
		}
	}
	for _, b := range p.Benchmarks {
		add(b, false, nil)
	}
	for _, s := range p.Scenarios {
		add(s, true, nil)
	}
	for _, sc := range p.ScenarioSet {
		add(sc.Name, true, sc)
	}
	return specs
}

// NumShards reports how many fixed-size shards a plan of total specs slices
// into: ceil(total/size). Shard geometry is a pure function of the plan and
// the shard size — never of worker count — so the fleet executor's shard
// numbering is deterministic: shard i always covers the same plan positions
// no matter how many processes execute the sweep.
func NumShards(total, size int) int {
	if total <= 0 || size <= 0 {
		return 0
	}
	return (total + size - 1) / size
}

// ShardRange reports the half-open plan-order spec range [lo, hi) of the
// given shard: every shard covers size consecutive specs except the last,
// which covers the remainder. Panics on an out-of-range shard — the fleet
// wire protocol validates shard ids before slicing.
func ShardRange(total, size, shard int) (lo, hi int) {
	if shard < 0 || shard >= NumShards(total, size) {
		panic(fmt.Sprintf("suite: shard %d out of range (total %d, size %d)", shard, total, size))
	}
	lo = shard * size
	hi = lo + size
	if hi > total {
		hi = total
	}
	return lo, hi
}

// RunSpec identifies one run of a plan.
type RunSpec struct {
	Index int // position in plan order
	// Benchmark names the unit under run: a benchmark, or — when Scenario
	// is set — a scripted multi-app scenario.
	Benchmark string
	Scenario  bool
	// Def carries the scenario definition when the unit is an ad-hoc
	// scenario (file-loaded or generated); nil means Benchmark names a
	// bundled library scenario (or a plain benchmark).
	Def      *scenario.Scenario
	Seed     uint64
	Ablation Ablation
}

// UnitName is the spec's display name: the benchmark name, or the scenario
// name carrying a "scenario:" prefix so the two axes can never alias in
// reports and summaries.
func (s RunSpec) UnitName() string {
	if s.Scenario {
		return "scenario:" + s.Benchmark
	}
	return s.Benchmark
}

// String renders the spec as "benchmark/seed=N/ablation".
func (s RunSpec) String() string {
	return fmt.Sprintf("%s/seed=%d/%s", s.UnitName(), s.Seed, s.Ablation.Label())
}

// RunOutput is one completed run: the caller's result payload plus the
// executor's own measurements.
type RunOutput[R any] struct {
	Spec   RunSpec
	Result R
	Err    error
	// Wall is the real time the run took on its worker.
	Wall time.Duration
	// Ticks is the simulated time the run covered (as reported by the run
	// function); Ticks/Wall is the simulation throughput.
	Ticks sim.Ticks
}

// TicksPerSecond reports simulation throughput: simulated ticks per real
// second.
func (o RunOutput[R]) TicksPerSecond() float64 {
	if o.Wall <= 0 {
		return 0
	}
	return float64(o.Ticks) / o.Wall.Seconds()
}

// RunError is the first failure (in plan order) of a plan sweep.
type RunError struct {
	Spec RunSpec
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("%s: %v", e.Spec, e.Err) }

// Unwrap exposes the underlying run error.
//
//agave:allow unusedfunc errors.Is and errors.As reach it through an anonymous interface
func (e *RunError) Unwrap() error { return e.Err }

// Each calls fn(i) for every i in [0, n) on a bounded pool of workers
// goroutines (<= 0 means GOMAXPROCS): the one dispatch pool behind both the
// in-process suite sweep and the fleet coordinator. Indices are dispatched in
// increasing order, so with one worker execution is exactly the serial loop.
// After the first failure no further index is dispatched; in-flight calls
// finish, and Each returns the error of the smallest failed index. Every
// index below it was dispatched and has completed, so that is the error a
// serial loop would have stopped at.
func Each(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var (
		mu       sync.Mutex
		next     int
		failed   = -1 // smallest failed index; stops dispatch once set
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failed >= 0 || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if failed < 0 || i < failed {
						failed, firstErr = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
