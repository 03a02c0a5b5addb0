package core

import (
	"testing"

	"agave/internal/mem"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
)

// quickCfg is a shortened config for unit tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Duration = 400 * sim.Millisecond
	cfg.Warmup = 200 * sim.Millisecond
	return cfg
}

// runBundled runs the bundled scenario name.
func runBundled(name string, cfg Config) (*Result, error) {
	sc, err := scenario.ByName(name)
	if err != nil {
		return nil, err
	}
	return RunScenarioDef(sc, cfg)
}

func TestSuiteNames(t *testing.T) {
	names := SuiteNames()
	if len(names) != 25 {
		t.Fatalf("suite has %d benchmarks, want 19+6", len(names))
	}
	if !IsSPEC("401.bzip2") || IsSPEC("aard.main") {
		t.Fatal("IsSPEC misclassifies")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRunRejectsEmptyInterval: every run kind refuses a zero measured
// interval instead of returning an empty measurement.
func TestRunRejectsEmptyInterval(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 0
	for name, run := range map[string]func() (*Result, error){
		"agave":    func() (*Result, error) { return Run("countdown.main", cfg) },
		"spec":     func() (*Result, error) { return Run("401.bzip2", cfg) },
		"scenario": func() (*Result, error) { return runBundled("memory-storm", cfg) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s run at duration 0: nil error, want a rejection", name)
		}
	}
}

func TestRunAgaveCollectsEverything(t *testing.T) {
	r, err := Run("frozenbubble.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.IsSPEC {
		t.Fatal("agave run marked SPEC")
	}
	if r.Stats.Total() == 0 {
		t.Fatal("no references collected")
	}
	if r.Processes < 18 || r.Threads < 32 {
		t.Fatalf("census too small: %d procs %d threads", r.Processes, r.Threads)
	}
	if r.CodeRegions < 42 || r.CodeRegions > 60 {
		t.Fatalf("code regions = %d, paper band 42-55", r.CodeRegions)
	}
	if r.DataRegions < 32 || r.DataRegions > 110 {
		t.Fatalf("data regions = %d, paper band 32-104", r.DataRegions)
	}
}

func TestRunSPECCollects(t *testing.T) {
	r, err := Run("462.libquantum", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsSPEC {
		t.Fatal("SPEC run not marked")
	}
	if r.Checksum == 0 {
		t.Fatal("SPEC checksum zero")
	}
	if r.CodeRegions > 4 {
		t.Fatalf("SPEC code regions = %d, want tiny", r.CodeRegions)
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	// With a long warmup and tiny duration, boot transients (zygote
	// preload, launcher first draw) must not appear: totals should be
	// roughly proportional to duration.
	cfg := quickCfg()
	cfg.Duration = 100 * sim.Millisecond
	r1, err := Run("countdown.main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Duration = 300 * sim.Millisecond
	r3, err := Run("countdown.main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r3.Stats.Total()) / float64(r1.Stats.Total())
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("3x duration changed totals by %.2fx — warmup leaking?", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run("jetboy.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("jetboy.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Total() != b.Stats.Total() {
		t.Fatalf("same-seed runs diverged: %d vs %d", a.Stats.Total(), b.Stats.Total())
	}
	cfg := quickCfg()
	cfg.Seed = 99
	c, err := Run("jetboy.main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Total() == a.Stats.Total() {
		t.Log("different seeds gave identical totals (possible but unlikely)")
	}
}

func TestDisableJIT(t *testing.T) {
	cfg := quickCfg()
	cfg.DisableJIT = true
	r, err := Run("frozenbubble.main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Stats.Entries() {
		if e.Proc == "benchmark" && e.Kind == stats.IFetch && e.Region == mem.RegionJITCache {
			t.Fatalf("JIT disabled but app fetched %d from the code cache", e.Count)
		}
	}
}

func TestRunSuiteSubset(t *testing.T) {
	rs, err := RunSuite(quickCfg(), "countdown.main", "999.specrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Benchmark != "countdown.main" || !rs[1].IsSPEC {
		t.Fatalf("subset results wrong: %+v", rs)
	}
}

// --- calibration: the paper's headline shapes must hold ---

func TestShapeAndroidVsSPECInstructionRegions(t *testing.T) {
	and, err := Run("frozenbubble.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Run("401.bzip2", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Android: mspace + libdvm.so carry the majority of instruction
	// reads (Fig 1); the app binary is negligible.
	bi := stats.NewBreakdown(and.Stats.ByRegion(stats.IFetch))
	if bi.Share(mem.RegionMspace)+bi.Share(mem.RegionLibDVM) < 0.5 {
		t.Fatalf("mspace+libdvm = %.1f%%, want majority",
			100*(bi.Share(mem.RegionMspace)+bi.Share(mem.RegionLibDVM)))
	}
	if bi.Share(mem.RegionAppBinary) > 0.05 {
		t.Fatalf("android app binary = %.1f%% of ifetch, want tiny", 100*bi.Share(mem.RegionAppBinary))
	}
	// SPEC: the app binary carries nearly everything.
	si := stats.NewBreakdown(spec.Stats.ByRegion(stats.IFetch))
	if si.Share(mem.RegionAppBinary) < 0.9 {
		t.Fatalf("SPEC app binary = %.1f%%, want > 90%%", 100*si.Share(mem.RegionAppBinary))
	}
	// Region-count contrast: Android uses an order of magnitude more.
	if and.CodeRegions < spec.CodeRegions*8 {
		t.Fatalf("code region contrast too weak: android %d vs spec %d",
			and.CodeRegions, spec.CodeRegions)
	}
}

func TestShapeDataRegions(t *testing.T) {
	and, err := Run("frozenbubble.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	bd := stats.NewBreakdown(and.Stats.ByRegion(stats.DataKinds...))
	// Gralloc, fb0, dalvik-heap, anonymous all visible (Fig 2).
	for _, region := range []string{
		mem.RegionGralloc, mem.RegionFramebuffer, mem.RegionDalvikHeap, mem.RegionAnonymous,
	} {
		if bd.Share(region) < 0.01 {
			t.Errorf("data region %q = %.2f%%, want >= 1%%", region, 100*bd.Share(region))
		}
	}
}

func TestShapeGalleryMediaserver(t *testing.T) {
	r, err := Run("gallery.mp4.view", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	bi := stats.NewBreakdown(r.Stats.ByProcess(stats.IFetch))
	bd := stats.NewBreakdown(r.Stats.ByProcess(stats.DataKinds...))
	// Paper: mediaserver = 81% instruction, 77% data references.
	if got := bi.Share("mediaserver"); got < 0.6 || got > 0.97 {
		t.Fatalf("gallery mediaserver instr share = %.1f%%, paper 81%%", got*100)
	}
	if got := bd.Share("mediaserver"); got < 0.6 || got > 0.97 {
		t.Fatalf("gallery mediaserver data share = %.1f%%, paper 77%%", got*100)
	}
}

func TestShapeSurfaceFlingerTopThread(t *testing.T) {
	r, err := Run("aard.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	bt := stats.NewBreakdown(r.Stats.ByThread())
	if bt.Rows[0].Name != "SurfaceFlinger" {
		t.Fatalf("top thread = %s, want SurfaceFlinger (paper Table I)", bt.Rows[0].Name)
	}
}

func TestShapeDexoptOnlyInPM(t *testing.T) {
	pm, err := Run("pm.apk.view", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	other, err := Run("countdown.main", quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if pm.Stats.ByProcess()["dexopt"] == 0 {
		t.Fatal("pm.apk.view: dexopt earned nothing")
	}
	if other.Stats.ByProcess()["dexopt"] != 0 {
		t.Fatal("countdown.main: dexopt active outside install workloads")
	}
}

// TestCensusConservation holds every run kind's Result to the census
// identities: each reference is attributed to exactly one process, one
// region and one thread group, so each fold sums to the total, and the
// region counts and process census agree with the counter matrix they
// were taken from.
func TestCensusConservation(t *testing.T) {
	sum := func(m map[string]uint64) uint64 {
		var n uint64
		for _, v := range m {
			n += v
		}
		return n
	}
	for _, tc := range []struct {
		kind string
		run  func() (*Result, error)
	}{
		{"agave", func() (*Result, error) { return Run("countdown.main", quickCfg()) }},
		{"spec", func() (*Result, error) { return Run("401.bzip2", quickCfg()) }},
		{"scenario", func() (*Result, error) { return runBundled("memory-storm", quickCfg()) }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			r, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			total := r.Stats.Total()
			if total == 0 {
				t.Fatal("no references collected")
			}
			for name, fold := range map[string]map[string]uint64{
				"process": r.Stats.ByProcess(),
				"region":  r.Stats.ByRegion(),
				"thread":  r.Stats.ByThread(),
			} {
				if got := sum(fold); got != total {
					t.Errorf("sum by %s = %d, total = %d", name, got, total)
				}
			}
			if want := r.Stats.RegionCount(stats.IFetch); r.CodeRegions != want {
				t.Errorf("CodeRegions = %d, RegionCount(IFetch) = %d", r.CodeRegions, want)
			}
			if want := r.Stats.RegionCount(stats.DataKinds...); r.DataRegions != want {
				t.Errorf("DataRegions = %d, RegionCount(data) = %d", r.DataRegions, want)
			}
			if r.LiveProcesses > r.Processes {
				t.Errorf("LiveProcesses %d > Processes %d", r.LiveProcesses, r.Processes)
			}
		})
	}
}
