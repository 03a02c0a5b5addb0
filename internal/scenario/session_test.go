package scenario_test

import (
	"reflect"
	"testing"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
)

// quickCfg is the short measured interval whole-session tests run at,
// through the same runner (core.RunScenarioDef) the CLI uses.
func quickCfg() core.Config {
	return core.Config{
		Seed:     1,
		Duration: 150 * sim.Millisecond,
		Warmup:   80 * sim.Millisecond,
		Quantum:  sim.Millisecond,
	}
}

// run executes sc at cfg and fails the test on a run error.
func run(t *testing.T, sc *scenario.Scenario, cfg core.Config) *core.Result {
	t.Helper()
	r, err := core.RunScenarioDef(sc, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return r
}

// bundled looks a library scenario up by name.
func bundled(t *testing.T, name string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunIsSeedDeterministic is the core guarantee: a scenario is a
// measurement, so two runs with equal seeds must produce bit-identical
// attributed counters even across launches, switches, and kills.
func TestRunIsSeedDeterministic(t *testing.T) {
	sc := bundled(t, "commute")
	a := run(t, sc, quickCfg())
	b := run(t, sc, quickCfg())
	if a.Stats.Fingerprint() != b.Stats.Fingerprint() {
		t.Fatal("same seed, diverging fingerprints")
	}
	if !reflect.DeepEqual(a.Stats.Entries(), b.Stats.Entries()) {
		t.Fatal("same seed, diverging counter matrices")
	}
	// A different session length is a genuinely different measurement.
	longer := quickCfg()
	longer.Duration += 50 * sim.Millisecond
	c := run(t, sc, longer)
	if c.Stats.Fingerprint() == a.Stats.Fingerprint() {
		t.Fatal("longer run produced an identical fingerprint")
	}
}

// TestEndOfIntervalEventFires guards the half-open-interval edge: the
// kernel stops the instant the deadline is reached, so an event scripted at
// At=1000 must land on the interval's last tick, not one past it.
func TestEndOfIntervalEventFires(t *testing.T) {
	sc := &scenario.Scenario{
		Name:        "edge",
		Description: "kill on the final tick",
		Apps:        []scenario.App{{Name: "note", Workload: "countdown.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "note"},
			{At: 1000, Kind: scenario.Kill, App: "note"},
		},
	}
	res := run(t, sc, quickCfg())
	if res.LiveProcesses >= res.Processes {
		t.Fatalf("At=1000 kill did not execute: live %d, total %d",
			res.LiveProcesses, res.Processes)
	}
}

// TestPerAppAttribution pins the tentpole property: with four apps live at
// once, every app is its own process in the counter matrix, and all of them
// issue references.
func TestPerAppAttribution(t *testing.T) {
	sc := bundled(t, "social-burst")
	if sc.MaxLiveApps() < 3 {
		t.Fatalf("social-burst holds %d live apps, want >= 3", sc.MaxLiveApps())
	}
	res := run(t, sc, quickCfg())
	byProc := res.Stats.ByProcess()
	for _, app := range sc.Apps {
		if byProc[app.Name] == 0 {
			t.Errorf("app %q attributed no references", app.Name)
		}
	}
	// The resident stack is present too, exactly as in single-app runs
	// (zygote itself is silent post-warmup, there as here: it parks in its
	// fork-request loop before measurement starts).
	for _, p := range []string{"system_server", "mediaserver", "swapper"} {
		if byProc[p] == 0 {
			t.Errorf("resident process %q attributed no references", p)
		}
	}
	if res.Session.MaxLive < 3 {
		t.Errorf("result MaxLive = %d, want >= 3", res.Session.MaxLive)
	}
}

// TestKillTearsProcessesDown runs the kill-heavy scenarios and checks the
// census: killed incarnations stay in the process count (as all spawned
// processes do) while the live count drops below it.
func TestKillTearsProcessesDown(t *testing.T) {
	for _, name := range []string{"media-marathon", "app-churn"} {
		sc := bundled(t, name)
		res := run(t, sc, quickCfg())
		if res.LiveProcesses >= res.Processes {
			t.Errorf("%s: live processes %d not below total %d after kills",
				name, res.LiveProcesses, res.Processes)
		}
		if res.Session.Events != len(sc.Timeline) {
			t.Errorf("%s: applied %d events, want %d", name, res.Session.Events, len(sc.Timeline))
		}
	}
}

// TestMemoryStormEmergentKills is the tentpole acceptance bar: the
// memory-storm timeline scripts no Kill event at all, yet under its Pressure
// events the lowmemorykiller must evict processes — cached apps before the
// perceptible/visible band, and never the foreground app. Kill timing and
// victim identity are decided by the kernel, not the script.
func TestMemoryStormEmergentKills(t *testing.T) {
	sc := bundled(t, "memory-storm")
	for _, ev := range sc.Timeline {
		if ev.Kind == scenario.Kill {
			t.Fatalf("memory-storm scripts a kill: %s", ev)
		}
	}
	res := run(t, sc, quickCfg())
	s := res.Session
	if s.LMKKills < 1 {
		t.Fatal("memory-storm produced no lowmemorykiller kill")
	}
	if s.LMKKills != len(s.LMKVictims) {
		t.Fatalf("kill count %d != victims %v", s.LMKKills, s.LMKVictims)
	}
	pos := make(map[string]int)
	for i, v := range s.LMKVictims {
		if v == "game" {
			t.Fatalf("foreground app killed: victims %v", s.LMKVictims)
		}
		pos[v] = i
	}
	// The cached apps (dict was backgrounded first, then timer) must go
	// before anything in the visible/perceptible band.
	cached := []string{"dict", "timer"}
	for _, c := range cached {
		ci, ok := pos[c]
		if !ok {
			continue
		}
		for _, v := range []string{"radio", "ndroid.systemui"} {
			if vi, ok := pos[v]; ok && vi < ci {
				t.Fatalf("victim order violates oom_adj: %q before cached %q in %v",
					v, c, s.LMKVictims)
			}
		}
	}
	if _, ok := pos["dict"]; !ok {
		t.Fatalf("LRU-oldest cached app survived the storm: victims %v", s.LMKVictims)
	}
	if s.Trims == 0 {
		t.Fatal("storm delivered no onTrimMemory callbacks")
	}
	// Emergent deaths show up in the census like scripted ones.
	if res.LiveProcesses >= res.Processes {
		t.Fatalf("census does not reflect LMK deaths: live %d of %d",
			res.LiveProcesses, res.Processes)
	}
}

// TestCachedAppEvictionPolicy pins the cooperative-then-coercive ladder:
// moderate pressure only trims (apps shrink their dalvik heaps), and the
// deep wave evicts exactly the LRU-oldest cached app — chosen by oom_adj
// recency, not by size — while the recently-used cached app and the
// foreground survive.
func TestCachedAppEvictionPolicy(t *testing.T) {
	s := run(t, bundled(t, "cached-app-eviction"), quickCfg()).Session
	if s.Trims == 0 {
		t.Fatal("moderate pressure delivered no onTrimMemory callbacks")
	}
	if s.LMKKills < 1 {
		t.Fatal("deep pressure killed nothing")
	}
	if s.LMKVictims[0] != "notes" {
		t.Fatalf("first victim = %q, want the LRU-oldest cached app %q (victims %v)",
			s.LMKVictims[0], "notes", s.LMKVictims)
	}
	for _, v := range s.LMKVictims {
		if v == "reader" || v == "game" {
			t.Fatalf("recently-used or foreground app evicted: %v", s.LMKVictims)
		}
	}
}

// TestScenarioRunsStayKillFreeWithoutPressure guards the bundled library's
// backward compatibility: the pressure model is always on for scenarios, but
// with the default budget no non-Pressure scenario comes close to the
// minfree ladder.
func TestScenarioRunsStayKillFreeWithoutPressure(t *testing.T) {
	for _, name := range []string{"commute", "social-burst", "app-churn"} {
		s := run(t, bundled(t, name), quickCfg()).Session
		if s.LMKKills != 0 || s.Trims != 0 {
			t.Errorf("%s: unexpected pressure activity: %d kills %v, %d trims",
				name, s.LMKKills, s.LMKVictims, s.Trims)
		}
	}
}

// TestMinFreeKnobTightensTheKiller pins the -minfree plumbing: raising the
// waterline makes a previously-safe session come under pressure.
func TestMinFreeKnobTightensTheKiller(t *testing.T) {
	cfg := quickCfg()
	cfg.MinFreePages = 120_000 // absurdly high waterline: everything is pressure
	s := run(t, bundled(t, "social-burst"), cfg).Session
	if s.LMKKills == 0 && s.Trims == 0 {
		t.Fatal("raised minfree waterline produced no pressure response")
	}
}

// TestRepeatedRunsWithWarmPoolsAreByteIdentical pins the pooling work: the
// engine's free lists (looper messages, input events, binder transactions,
// recycled cpu contexts) and the package-level caches they feed (stock dex
// images, decoded programs) must never leak state between runs. The first
// run of each scenario is the cold-cache reference; the two that follow
// execute with every process-wide cache warm and must reproduce the report
// byte for byte. Both a chaos scenario (fault injection, crash/restart) and
// an input-heavy scenario (the dispatcher's pooled event path) are covered.
func TestRepeatedRunsWithWarmPoolsAreByteIdentical(t *testing.T) {
	for _, name := range []string{"binder-storm", "thumb-scroll"} {
		sc := bundled(t, name)
		cold := run(t, sc, quickCfg())
		for i := 0; i < 2; i++ {
			warm := run(t, sc, quickCfg())
			if warm.Stats.Fingerprint() != cold.Stats.Fingerprint() {
				t.Fatalf("%s: warm run %d fingerprint diverged", name, i)
			}
			if !reflect.DeepEqual(warm.Stats.Entries(), cold.Stats.Entries()) {
				t.Fatalf("%s: warm run %d counter matrix diverged", name, i)
			}
			// Every non-counter report input must match too: census
			// scalars, input outcomes, fault bookkeeping.
			wc, cc := *warm, *cold
			wc.Stats, cc.Stats = nil, nil
			if !reflect.DeepEqual(wc, cc) {
				t.Fatalf("%s: warm run %d result fields diverged:\nwarm: %+v\ncold: %+v", name, i, wc, cc)
			}
		}
	}
}
