package scenario_test

import (
	"reflect"
	"testing"

	"agave/internal/core"
	"agave/internal/scenario"
)

// inputTotalsConsistent asserts the input-accounting invariant on a result:
// every injected sample is either dispatched or dropped, at the session
// level and per app, and latency aggregates are coherent.
func inputTotalsConsistent(t *testing.T, r *scenario.Result) {
	t.Helper()
	if r.InputEvents != r.InputDispatched+r.InputDropped {
		t.Fatalf("input totals inconsistent: %d events != %d dispatched + %d dropped",
			r.InputEvents, r.InputDispatched, r.InputDropped)
	}
	var inj, disp, drop int
	for _, a := range r.InputApps {
		if a.Injected != a.Dispatched+a.Dropped {
			t.Fatalf("%s: per-app totals inconsistent: %d != %d + %d",
				a.App, a.Injected, a.Dispatched, a.Dropped)
		}
		if a.Dispatched > 0 {
			if a.LatencyMin > a.LatencyMax {
				t.Fatalf("%s: latency min %d > max %d", a.App, a.LatencyMin, a.LatencyMax)
			}
			if a.LatencySum < a.LatencyMax {
				t.Fatalf("%s: latency sum %d < max %d", a.App, a.LatencySum, a.LatencyMax)
			}
		} else if a.LatencyMin != 0 || a.LatencyMax != 0 || a.LatencySum != 0 {
			t.Fatalf("%s: latency stats without dispatched events", a.App)
		}
		inj += a.Injected
		disp += a.Dispatched
		drop += a.Dropped
	}
	if inj != r.InputEvents || disp != r.InputDispatched || drop != r.InputDropped {
		t.Fatalf("per-app sums (%d/%d/%d) diverge from session totals (%d/%d/%d)",
			inj, disp, drop, r.InputEvents, r.InputDispatched, r.InputDropped)
	}
}

// TestInputLibraryScenariosDispatchAndDrop pins the acceptance bar on the two
// bundled input-heavy sessions: both must dispatch real events (with latency
// statistics) and drop the deliberately-stale ones, under the consistent
// accounting invariant.
func TestInputLibraryScenariosDispatchAndDrop(t *testing.T) {
	for _, name := range []string{"thumb-scroll", "arcade-rally"} {
		r := run(t, bundled(t, name), quickCfg()).Session
		inputTotalsConsistent(t, r)
		if r.InputEvents == 0 {
			t.Fatalf("%s: no input injected", name)
		}
		if r.InputDispatched == 0 {
			t.Fatalf("%s: nothing dispatched", name)
		}
		if r.InputDropped == 0 {
			t.Fatalf("%s: scripted stale gestures were not dropped", name)
		}
		var sawLatency bool
		for _, a := range r.InputApps {
			if a.Dispatched > 0 && a.LatencySum > 0 {
				sawLatency = true
			}
		}
		if !sawLatency {
			t.Fatalf("%s: no dispatch-latency statistics recorded", name)
		}
	}
}

// TestInputToUnfocusedAppDropsDeterministically: gestures aimed at an app
// that lost the foreground are dropped by the InputDispatcher — and two runs
// of the session agree on every counter and on the full counter matrix.
func TestInputToUnfocusedAppDropsDeterministically(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "stale-taps",
		Apps: []scenario.App{
			{Name: "note", Workload: "countdown.main"},
			{Name: "game", Workload: "frozenbubble.main"},
		},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "note"},
			{At: 100, Kind: scenario.Launch, App: "game"}, // note loses the focus
			{At: 300, Kind: scenario.Tap, App: "note"},
			{At: 450, Kind: scenario.Tap, App: "note"},
			{At: 600, Kind: scenario.Key, App: "note"},
		},
	}
	runA, runB := run(t, sc, quickCfg()), run(t, sc, quickCfg())
	a, b := runA.Session, runB.Session
	inputTotalsConsistent(t, a)
	if a.InputEvents != 5 || a.InputDropped != 5 || a.InputDispatched != 0 {
		t.Fatalf("unfocused gestures not all dropped: %d/%d/%d",
			a.InputEvents, a.InputDispatched, a.InputDropped)
	}
	if a.InputDropped != b.InputDropped || a.InputDispatched != b.InputDispatched {
		t.Fatalf("drop accounting nondeterministic: %d/%d vs %d/%d",
			a.InputDispatched, a.InputDropped, b.InputDispatched, b.InputDropped)
	}
	if runA.Stats.Fingerprint() != runB.Stats.Fingerprint() {
		t.Fatal("input-bearing session is not seed-deterministic")
	}
	if !reflect.DeepEqual(a.InputApps, b.InputApps) {
		t.Fatalf("per-app input stats diverged:\n%v\n%v", a.InputApps, b.InputApps)
	}
}

// TestInputMidKillAndFinalTickNeverPanic covers the two hostile edges: a
// gesture racing its target's kill (applied the same timeline instant) and a
// gesture at At=1000, the final measured tick. Both must be dropped and
// counted — never a panic, never an unaccounted event.
func TestInputMidKillAndFinalTickNeverPanic(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "kill-race",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 200, Kind: scenario.Tap, App: "game"},
			{At: 500, Kind: scenario.Kill, App: "game"},
			{At: 500, Kind: scenario.Tap, App: "game"},    // races the kill
			{At: 600, Kind: scenario.Key, App: "game"},    // dead target
			{At: 1000, Kind: scenario.Swipe, App: "game"}, // final measured tick
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("input events at dead apps must validate: %v", err)
	}
	run1 := run(t, sc, quickCfg())
	r := run1.Session
	inputTotalsConsistent(t, r)
	if r.Events != len(sc.Timeline) {
		t.Fatalf("applied %d events, want %d", r.Events, len(sc.Timeline))
	}
	// tap(2) + tap(2) + key(1) + swipe(5) = 10 samples; everything from
	// the kill onward (8 samples) must be dropped.
	if r.InputEvents != 10 {
		t.Fatalf("injected %d samples, want 10", r.InputEvents)
	}
	if r.InputDropped < 8 {
		t.Fatalf("only %d samples dropped, want >= 8 (kill race, dead target, final tick)",
			r.InputDropped)
	}
	run2 := run(t, sc, quickCfg())
	if r.InputDropped != run2.Session.InputDropped || run1.Stats.Fingerprint() != run2.Stats.Fingerprint() {
		t.Fatal("kill-race session is not deterministic")
	}
}

// TestDispatchedInputChangesMeasuredBehavior: the point of driving input
// through the stack is that delivered gestures do real work. The same
// session with taps must attribute strictly more references to the target
// app than the tap-free control.
func TestDispatchedInputChangesMeasuredBehavior(t *testing.T) {
	base := &scenario.Scenario{
		Name: "control",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 500, Kind: scenario.Idle},
		},
	}
	tapped := &scenario.Scenario{
		Name: "tapped",
		Apps: []scenario.App{{Name: "game", Workload: "frozenbubble.main"}},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 250, Kind: scenario.Tap, App: "game"},
			{At: 350, Kind: scenario.Tap, App: "game"},
			{At: 450, Kind: scenario.Swipe, App: "game"},
			{At: 500, Kind: scenario.Idle},
		},
	}
	rb := run(t, base, quickCfg())
	rt := run(t, tapped, quickCfg())
	if rt.Session.InputDispatched == 0 {
		t.Fatalf("no tap reached the foreground game (dropped %d)", rt.Session.InputDropped)
	}
	refs := func(r *core.Result) uint64 {
		var n uint64
		for name, c := range r.Stats.ByProcess() {
			if name == "game" {
				n += c
			}
		}
		return n
	}
	if refs(rt) <= refs(rb) {
		t.Fatalf("dispatched input did not move the app's profile: %d refs with taps, %d without",
			refs(rt), refs(rb))
	}
}

// TestGeneratorInputsKnob: the Inputs knob weaves tap/key/swipe events into
// a valid timeline, the knob value lands in the scenario name, and the
// session runs with consistent input accounting.
func TestGeneratorInputsKnob(t *testing.T) {
	cfg := scenario.GenConfig{Seed: 5, Apps: 3, Events: 12, Inputs: 10}
	s := scenario.Generate(cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated input session invalid: %v", err)
	}
	if s.Name != "gen-s5-a3-e12-p0-i10-f0" {
		t.Fatalf("name = %q", s.Name)
	}
	var gestures int
	for _, ev := range s.Timeline {
		switch ev.Kind {
		case scenario.Tap, scenario.Key, scenario.Swipe:
			gestures++
		}
	}
	if gestures != 10 {
		t.Fatalf("generated %d input gestures, want 10", gestures)
	}
	// Same config, same bytes: the generator stays a pure function.
	if !reflect.DeepEqual(s, scenario.Generate(cfg)) {
		t.Fatal("input-bearing generation is not deterministic")
	}
	r := run(t, s, quickCfg()).Session
	inputTotalsConsistent(t, r)
	if r.InputEvents == 0 {
		t.Fatal("generated gestures injected nothing")
	}
}
