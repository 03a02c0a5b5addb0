package scenario

import (
	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
)

// Result is the session-level outcome of one scenario run: what the script
// applied and what the framework did in response. The attributed counter
// matrix and the process census belong to the machine, and the runner that
// booted it (core.RunScenarioDef) takes them.
type Result struct {
	// Source is the scenario's provenance (empty = bundled library; see
	// Scenario.Source), copied through so reports can label where each
	// session definition came from.
	Source string
	// Apps is the session's app roster (name → workload), copied from the
	// scenario so downstream consumers can resolve per-app attribution
	// without re-looking the scenario up in any registry.
	Apps []App

	// Events is the number of timeline events applied.
	Events int
	// MaxLive is the peak number of simultaneously-live scenario apps.
	MaxLive int

	// LMKKills counts processes the lowmemorykiller killed; LMKVictims
	// names them in kill order. Both are zero/empty when the session
	// never came under enough pressure.
	LMKKills   int
	LMKVictims []string
	// Trims counts onTrimMemory callbacks the ActivityManager delivered.
	Trims int

	// InputEvents counts the synthetic input samples the timeline
	// injected (a Tap is a down/up pair, a Swipe a five-sample gesture,
	// a Key one press); InputDispatched counts the samples an app's main
	// thread actually handled, and InputDropped the rest — refused by
	// the InputDispatcher (target dead, paused, or unfocused), consumed
	// unhandled by a paused activity, or still in flight when the
	// measurement ended. InputEvents == InputDispatched + InputDropped.
	InputEvents     int
	InputDispatched int
	InputDropped    int
	// InputApps is the per-target input outcome, sorted by app name;
	// empty when the timeline injected no input.
	InputApps []InputAppStats

	// The dependability section. FaultsInjected counts fault events that
	// actually fired (a fault at a runtime-dead target drops and counts
	// nothing); FaultsDetected counts injected failures some framework or
	// app code observed and survived via its error path; FaultsRecovered
	// counts completed recovery actions — crashed services relaunched,
	// mediaserver restarts, and player sessions re-established across
	// them. ANRs counts Application Not Responding episodes the watchdog
	// flagged (per-app counts ride on InputApps).
	FaultsInjected  int
	FaultsDetected  int
	FaultsRecovered int
	ANRs            int
}

// InputAppStats is one scenario app's input outcome: delivery counts plus
// end-to-end dispatch-latency aggregates (injection on the driver thread to
// handler start on the app's main thread, in ticks) over the dispatched
// events. It is the framework dispatcher's per-target record, carried into
// the result verbatim.
type InputAppStats = android.InputAppStats

// Session is one scripted session in flight: the scenario's apps by name
// and the current foreground app. Its script runs on the ScenarioDriver
// thread — the simulated counterpart of the `am` tooling scripted sessions
// use on real devices — so every transition is charged inside system_server
// at a deterministic simulated time.
type Session struct {
	sc         *Scenario
	sys        *android.System
	disableJIT bool
	byName     map[string]*apps.Workload
	live       map[string]*android.App
	foreground string
	// scriptDone flips once every timeline event has been applied; Finish
	// steps the machine until it is set.
	scriptDone bool
}

// Start scripts the validated scenario sc across a measured interval of
// duration ticks that begins now, on a booted machine whose counters were
// just reset. It only spawns the driver thread: the caller runs the
// machine through the interval, then calls Finish. disableJIT turns the
// trace JIT off in every scenario app.
func Start(sys *android.System, sc *Scenario, duration sim.Ticks, disableJIT bool) *Session {
	s := &Session{
		sc:         sc,
		sys:        sys,
		disableJIT: disableJIT,
		byName:     make(map[string]*apps.Workload, len(sc.Apps)),
		live:       make(map[string]*android.App, len(sc.Apps)),
	}
	for _, a := range sc.Apps {
		w, err := apps.ByName(a.Workload)
		if err != nil {
			panic(err) // unreachable: Validate resolved every workload
		}
		s.byName[a.Name] = w
	}
	// The driver thread sleeps to each event's deadline and applies the
	// transition, so event timing, cost, and attribution (to system_server,
	// like the real ActivityManager's) are deterministic parts of the
	// measurement.
	k := sys.K
	start := k.Clock.Now()
	k.SpawnThread(sys.SystemServer, "ScenarioDriver", "ScenarioDriver", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		for _, ev := range sc.Timeline {
			ex.SleepUntil(ev.at(start, duration))
			s.apply(ex, ev)
		}
		s.scriptDone = true
		// Script exhausted: park until the run ends.
		ex.Wait(k.NewWaitQueue("scenario.done"))
	})
	return s
}

// Finish completes the session after the measured interval and returns its
// outcome. A scheduler quantum can overshoot the deadline past the timers
// of events scripted at the very end of the interval (At near 1000), so
// Finish steps the machine forward until the whole script has executed:
// every validated event is applied — Result.Events is a promise.
func (s *Session) Finish() *Result {
	k := s.sys.K
	for !s.scriptDone {
		k.Run(k.Clock.Now() + 1)
	}
	res := &Result{
		Source:     s.sc.Source,
		Apps:       append([]App(nil), s.sc.Apps...),
		Events:     len(s.sc.Timeline),
		MaxLive:    s.sc.MaxLiveApps(),
		LMKKills:   k.LMKKills(),
		LMKVictims: append([]string(nil), k.LMKVictims()...),
		Trims:      s.sys.Trims(),
		InputApps:  s.sys.InputStats(),
	}
	for _, st := range res.InputApps {
		res.InputEvents += st.Injected
		res.InputDispatched += st.Dispatched
		res.InputDropped += st.Dropped
	}
	res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered, res.ANRs = s.sys.Inject.Counts()
	return res
}

// apply performs one validated timeline event on the driver thread.
func (s *Session) apply(ex *kernel.Exec, ev Event) {
	sys := s.sys
	switch ev.Kind {
	case Launch:
		w := s.byName[ev.App]
		a := apps.Launch(sys, w, ev.App, ev.App, s.disableJIT)
		s.live[ev.App] = a
		if !w.Background {
			// The launched activity takes the foreground; whoever held
			// it is paused, exactly as a real launch backgrounds the
			// previous task.
			s.pauseForeground(ex, ev.App)
			s.foreground = ev.App
		}
	case SwitchTo:
		if s.foreground == ev.App {
			return
		}
		s.pauseForeground(ex, ev.App)
		sys.ResumeApp(ex, s.live[ev.App])
		s.foreground = ev.App
	case Background:
		sys.PauseApp(ex, s.live[ev.App])
		if s.foreground == ev.App {
			s.foreground = ""
		}
	case Kill:
		sys.KillApp(ex, s.live[ev.App])
		delete(s.live, ev.App)
		if s.foreground == ev.App {
			s.foreground = ""
		}
	case Tap:
		sys.InjectTap(ex, ev.App)
	case Key:
		sys.InjectKey(ex, ev.App)
	case Swipe:
		sys.InjectSwipe(ex, ev.App)
	case Idle:
		// A deliberate gap: the system runs undisturbed.
	case Pressure:
		// External memory demand: the allocation syscall cost charges to
		// the driver; whether anything dies is the lowmemorykiller's call.
		ex.Syscall(800, 200)
		sys.K.Balloon(ev.Pages)
	case FaultBinder:
		// A target that died at run time (the lowmemorykiller got it) drops
		// the fault without effect — the runtime counterpart of the
		// validator's liveness rule.
		sys.InjectBinderFault(ex, ev.App)
	case CorruptParcel:
		sys.InjectCorruptParcel(ex, ev.App)
	case CrashService:
		s.crashService(ex, ev)
	case KillMediaserver:
		sys.CrashMediaserver(ex)
	}
}

// crashService kills the target as a native crash would and performs the
// ActivityManager's system-restart recovery: the process comes straight
// back under the same name. The script considers the app continuously live
// — later events target the restarted incarnation. A runtime-dead target
// drops the fault.
func (s *Session) crashService(ex *kernel.Exec, ev Event) {
	sys := s.sys
	a, ok := s.live[ev.App]
	if !ok || a.Dead {
		return
	}
	wasFg := s.foreground == ev.App
	prevFg := s.foreground
	sys.CrashApp(ex, a)
	delete(s.live, ev.App)
	if wasFg {
		s.foreground = ""
	}
	w := s.byName[ev.App]
	restarted := apps.Launch(sys, w, ev.App, ev.App, s.disableJIT)
	s.live[ev.App] = restarted
	sys.Inject.NoteRecovered()
	if w.Background {
		return
	}
	if wasFg {
		// The crashed activity held the screen; its restart takes it back.
		s.foreground = ev.App
		return
	}
	// It was behind another app: the restart happens in the background and
	// the previous foreground app keeps (formally, retakes) its slot.
	sys.PauseApp(ex, restarted)
	if prevFg != "" {
		if p, ok := s.live[prevFg]; ok && !p.Dead {
			sys.ResumeApp(ex, p)
		}
	}
}

// pauseForeground pauses the current foreground app, if any, unless it is
// the app about to take over.
func (s *Session) pauseForeground(ex *kernel.Exec, next string) {
	if s.foreground == "" || s.foreground == next {
		return
	}
	if a, ok := s.live[s.foreground]; ok {
		s.sys.PauseApp(ex, a)
	}
	s.foreground = ""
}
