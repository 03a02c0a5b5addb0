package scenario_test

import (
	"reflect"
	"strings"
	"testing"

	"agave/internal/scenario"
)

// TestChaosLibraryScenariosInjectDetectRecover pins the acceptance bar on
// the two bundled chaos sessions: both must inject and detect faults, both
// must complete recoveries (a restarted service or mediaserver), and both
// must replay bit-identically.
func TestChaosLibraryScenariosInjectDetectRecover(t *testing.T) {
	for _, name := range []string{"binder-storm", "mediaserver-meltdown"} {
		sc := bundled(t, name)
		run1 := run(t, sc, quickCfg())
		r := run1.Session
		if r.Events != len(sc.Timeline) {
			t.Errorf("%s: applied %d events, want %d", name, r.Events, len(sc.Timeline))
		}
		if r.FaultsInjected == 0 {
			t.Errorf("%s: no faults injected", name)
		}
		if r.FaultsDetected == 0 {
			t.Errorf("%s: no fault detected", name)
		}
		if r.FaultsRecovered == 0 {
			t.Errorf("%s: no recovery completed", name)
		}
		run2 := run(t, sc, quickCfg())
		r2 := run2.Session
		if run1.Stats.Fingerprint() != run2.Stats.Fingerprint() {
			t.Errorf("%s: chaos session is not seed-deterministic", name)
		}
		if r.FaultsInjected != r2.FaultsInjected || r.FaultsDetected != r2.FaultsDetected ||
			r.FaultsRecovered != r2.FaultsRecovered || r.ANRs != r2.ANRs {
			t.Errorf("%s: dependability counters diverged between runs: %d/%d/%d/%d vs %d/%d/%d/%d",
				name, r.FaultsInjected, r.FaultsDetected, r.FaultsRecovered, r.ANRs,
				r2.FaultsInjected, r2.FaultsDetected, r2.FaultsRecovered, r2.ANRs)
		}
	}
}

// TestCrashServiceRestartsAndLaterEventsLand: a crashService mid-session
// must leave the app targetable — the script's later switchto and tap aim at
// the restarted incarnation, and the session ends with the recovery counted.
func TestCrashServiceRestartsAndLaterEventsLand(t *testing.T) {
	sc := &scenario.Scenario{
		Name: "crash-restart",
		Apps: []scenario.App{
			{Name: "game", Workload: "frozenbubble.main"},
			{Name: "dict", Workload: "aard.main"},
		},
		Timeline: []scenario.Event{
			{At: 0, Kind: scenario.Launch, App: "game"},
			{At: 100, Kind: scenario.Launch, App: "dict"},
			{At: 300, Kind: scenario.CrashService, App: "game"}, // crashes behind dict
			{At: 500, Kind: scenario.SwitchTo, App: "game"},     // targets the restart
			{At: 650, Kind: scenario.Tap, App: "game"},
			{At: 800, Kind: scenario.CrashService, App: "game"}, // crashes while foreground
			{At: 950, Kind: scenario.Tap, App: "game"},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("crashService must keep its target script-live: %v", err)
	}
	r := run(t, sc, quickCfg()).Session
	if r.Events != len(sc.Timeline) {
		t.Fatalf("applied %d events, want %d", r.Events, len(sc.Timeline))
	}
	if r.FaultsInjected != 2 || r.FaultsDetected != 2 {
		t.Fatalf("injected/detected = %d/%d, want 2/2", r.FaultsInjected, r.FaultsDetected)
	}
	if r.FaultsRecovered != 2 {
		t.Fatalf("recovered = %d, want 2 (one relaunch per crash)", r.FaultsRecovered)
	}
	if r.InputDispatched == 0 {
		t.Fatal("no tap reached the restarted foreground app")
	}
}

// TestValidatorRejectsFaultsAtNonLiveTargets: the script must aim targeted
// faults at apps it has live, with the field-indexed error the codec
// convention promises; killMediaserver needs no target and crashService does
// not remove its target from the live set.
func TestValidatorRejectsFaultsAtNonLiveTargets(t *testing.T) {
	apps := []scenario.App{
		{Name: "game", Workload: "frozenbubble.main"},
		{Name: "dict", Workload: "aard.main"},
	}
	for _, tc := range []struct {
		name     string
		timeline []scenario.Event
		wantErr  string
	}{
		{
			name: "fault-before-launch",
			timeline: []scenario.Event{
				{At: 0, Kind: scenario.Launch, App: "game"},
				{At: 100, Kind: scenario.FaultBinder, App: "dict"},
			},
			wantErr: `timeline[1]: event "at=100 faultBinder dict" injects a fault into an app that is not running`,
		},
		{
			name: "corrupt-after-kill",
			timeline: []scenario.Event{
				{At: 0, Kind: scenario.Launch, App: "game"},
				{At: 200, Kind: scenario.Kill, App: "game"},
				{At: 400, Kind: scenario.CorruptParcel, App: "game"},
			},
			wantErr: "timeline[2]",
		},
		{
			name: "crash-never-launched",
			timeline: []scenario.Event{
				{At: 0, Kind: scenario.Launch, App: "game"},
				{At: 300, Kind: scenario.CrashService, App: "dict"},
			},
			wantErr: "injects a fault into an app that is not running",
		},
		{
			name: "mediaserver-kill-with-target",
			timeline: []scenario.Event{
				{At: 0, Kind: scenario.Launch, App: "game"},
				{At: 300, Kind: scenario.KillMediaserver, App: "game"},
			},
			wantErr: "killMediaserver event names app",
		},
		{
			name: "fault-after-crash-is-legal",
			timeline: []scenario.Event{
				{At: 0, Kind: scenario.Launch, App: "game"},
				{At: 300, Kind: scenario.CrashService, App: "game"},
				{At: 600, Kind: scenario.FaultBinder, App: "game"},
				{At: 800, Kind: scenario.KillMediaserver},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := &scenario.Scenario{Name: tc.name, Apps: apps, Timeline: tc.timeline}
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid chaos timeline rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid timeline accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestGeneratorFaultsKnob: the Faults knob weaves fault events into a valid
// timeline (targeted faults only at script-live apps), the knob value lands
// in the scenario name, generation stays a pure function, and the session
// runs with every event applied.
func TestGeneratorFaultsKnob(t *testing.T) {
	cfg := scenario.GenConfig{Seed: 9, Apps: 4, Events: 16, Faults: 8}
	s := scenario.Generate(cfg)
	if err := s.Validate(); err != nil {
		t.Fatalf("generated chaos session invalid: %v", err)
	}
	if s.Name != "gen-s9-a4-e16-p0-i0-f8" {
		t.Fatalf("name = %q", s.Name)
	}
	var faults int
	for _, ev := range s.Timeline {
		switch ev.Kind {
		case scenario.FaultBinder, scenario.CrashService, scenario.KillMediaserver, scenario.CorruptParcel:
			faults++
		}
	}
	if faults != 8 {
		t.Fatalf("generated %d fault events, want 8", faults)
	}
	if !reflect.DeepEqual(s, scenario.Generate(cfg)) {
		t.Fatal("fault-bearing generation is not deterministic")
	}
	// The liveness guarantee must hold across seeds, not just one draw.
	for seed := uint64(1); seed <= 10; seed++ {
		g := scenario.Generate(scenario.GenConfig{Seed: seed, Apps: 3, Events: 12, Faults: 6})
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: generated chaos session invalid: %v", seed, err)
		}
	}
	r := run(t, s, quickCfg()).Session
	if r.Events != len(s.Timeline) {
		t.Fatalf("applied %d events, want %d", r.Events, len(s.Timeline))
	}
	if r.FaultsInjected == 0 {
		t.Fatal("generated chaos session injected nothing")
	}
}
