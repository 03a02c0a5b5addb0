package scenario

import (
	"fmt"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/stats"
)

// Config controls one scenario run. It deliberately mirrors core.Config:
// scenarios are measured exactly like single-app runs — boot, warm up,
// reset counters, measure — with the timeline scripted across the measured
// interval.
type Config struct {
	// Seed drives every stochastic decision; equal seeds give
	// bit-identical results.
	Seed uint64
	// Duration is the measured simulated interval; the timeline's
	// Fractions are positions within it.
	Duration sim.Ticks
	// Warmup runs the booted (but app-less) stack before measurement:
	// scenario measurements include app launches by design, so only the
	// system boot transient is excluded.
	Warmup sim.Ticks
	// Quantum is the scheduler time slice all live apps share.
	Quantum sim.Ticks
	// DisableJIT turns the trace JIT off in every scenario app.
	DisableJIT bool
	// DirtyRectComposition switches SurfaceFlinger to composing only
	// posted surfaces.
	DirtyRectComposition bool
	// MinFreePages is the lowmemorykiller's cached-app kill waterline in
	// pages; the visible and foreground rungs are derived from it
	// (0 = the default 32 MB). The CLI's -minfree knob lands here.
	MinFreePages uint64
}

// Result is the outcome of one scenario run: the same attributed counter
// matrix and census scalars a single-app run yields, plus session-level
// counts.
type Result struct {
	Scenario string
	// Source is the scenario's provenance (empty = bundled library; see
	// Scenario.Source), copied through so reports can label where each
	// session definition came from.
	Source string
	// Apps is the session's app roster (name → workload), copied from the
	// scenario so downstream consumers can resolve per-app attribution
	// without re-looking the scenario up in any registry.
	Apps  []App
	Stats *stats.Collector

	Processes int
	Threads   int
	// LiveProcesses counts processes still alive at the end — the
	// difference to Processes is the teardown the session performed.
	LiveProcesses int
	CodeRegions   int
	DataRegions   int

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

	Duration sim.Ticks
}

// InputAppStats is one scenario app's input outcome: delivery counts plus
// end-to-end dispatch-latency aggregates (injection on the driver thread to
// handler start on the app's main thread, in ticks) over the dispatched
// events. It is the framework dispatcher's per-target record, carried into
// the result verbatim.
type InputAppStats = android.InputAppStats

// driver is the running session state: the scenario's apps by name and the
// current foreground app. It lives on the ScenarioDriver thread — the
// simulated counterpart of the `am` tooling scripted sessions use on real
// devices — so every transition is charged inside system_server at a
// deterministic simulated time.
type driver struct {
	sys        *android.System
	cfg        Config
	byName     map[string]*apps.Workload
	live       map[string]*android.App
	foreground string
	// scriptDone flips once every timeline event has been applied; the
	// engine steps the machine until it is set.
	scriptDone bool
}

// Run executes one scripted session: boot, warm up, then drive the timeline
// across the measured interval while every live app runs its workload.
func Run(s *Scenario, cfg Config) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("scenario %s: non-positive duration", s.Name)
	}
	d := &driver{
		cfg:    cfg,
		byName: make(map[string]*apps.Workload, len(s.Apps)),
		live:   make(map[string]*android.App, len(s.Apps)),
	}
	for _, a := range s.Apps {
		w, err := apps.ByName(a.Workload)
		if err != nil {
			return nil, err // unreachable after Validate
		}
		d.byName[a.Name] = w
	}

	// Scenario machines always run the memory-pressure model on the 1 GB
	// device: backgrounded apps can die because the system is out of
	// memory, not only because the timeline says so.
	k := kernel.New(kernel.Config{
		Quantum:  cfg.Quantum,
		Seed:     cfg.Seed,
		MemPages: kernel.DefaultMemPages,
		MinFree:  kernel.DefaultMinFree(cfg.MinFreePages),
	})
	defer k.Shutdown()
	sys := android.Boot(k)
	sys.Compositor.DirtyRectOnly = cfg.DirtyRectComposition
	d.sys = sys

	// Warmup covers the system boot transient only: no scenario app exists
	// yet, because launches are part of the measured session.
	k.Run(cfg.Warmup)
	k.Stats.Reset()

	// The driver thread scripts the session from inside the simulation:
	// it sleeps to each event's deadline and applies the transition, so
	// event timing, cost, and attribution (to system_server, like the real
	// ActivityManager's) are deterministic parts of the measurement.
	start := k.Clock.Now()
	k.SpawnThread(sys.SystemServer, "ScenarioDriver", "ScenarioDriver", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		for _, ev := range s.Timeline {
			ex.SleepUntil(ev.at(start, cfg.Duration))
			d.apply(ex, ev)
		}
		d.scriptDone = true
		// Script exhausted: park until the run ends.
		ex.Wait(k.NewWaitQueue("scenario.done"))
	})
	k.Run(cfg.Warmup + cfg.Duration)
	// A scheduler quantum can overshoot the deadline past the timers of
	// events scripted at the very end of the interval (At near 1000).
	// Step the machine forward until the whole script has executed, so
	// every validated event is applied — Result.Events is a promise.
	for !d.scriptDone {
		k.Run(k.Clock.Now() + 1)
	}

	res := &Result{
		Scenario:      s.Name,
		Source:        s.Source,
		Apps:          append([]App(nil), s.Apps...),
		Stats:         k.Stats,
		Processes:     k.ProcessCount(),
		Threads:       k.ThreadCount(),
		LiveProcesses: k.LiveProcessCount(),
		CodeRegions:   k.Stats.RegionCount(stats.IFetch),
		DataRegions:   k.Stats.RegionCount(stats.DataKinds...),
		Events:        len(s.Timeline),
		MaxLive:       s.MaxLiveApps(),
		LMKKills:      k.LMKKills(),
		LMKVictims:    append([]string(nil), k.LMKVictims()...),
		Trims:         sys.Trims(),
		Duration:      cfg.Duration,
	}
	res.InputApps = sys.InputStats()
	for _, st := range res.InputApps {
		res.InputEvents += st.Injected
		res.InputDispatched += st.Dispatched
		res.InputDropped += st.Dropped
	}
	res.FaultsInjected, res.FaultsDetected, res.FaultsRecovered, res.ANRs = sys.Inject.Counts()
	return res, nil
}

// apply performs one validated timeline event on the driver thread.
func (d *driver) apply(ex *kernel.Exec, ev Event) {
	sys := d.sys
	switch ev.Kind {
	case Launch:
		w := d.byName[ev.App]
		a := apps.LaunchAs(sys, w, ev.App, d.cfg.DisableJIT)
		d.live[ev.App] = a
		if !w.Background {
			// The launched activity takes the foreground; whoever held
			// it is paused, exactly as a real launch backgrounds the
			// previous task.
			d.pauseForeground(ex, ev.App)
			d.foreground = ev.App
		}
	case SwitchTo:
		if d.foreground == ev.App {
			return
		}
		d.pauseForeground(ex, ev.App)
		sys.ResumeApp(ex, d.live[ev.App])
		d.foreground = ev.App
	case Background:
		sys.PauseApp(ex, d.live[ev.App])
		if d.foreground == ev.App {
			d.foreground = ""
		}
	case Kill:
		sys.KillApp(ex, d.live[ev.App])
		delete(d.live, ev.App)
		if d.foreground == ev.App {
			d.foreground = ""
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
		d.crashService(ex, ev)
	case KillMediaserver:
		sys.CrashMediaserver(ex)
	}
}

// crashService kills the target as a native crash would and performs the
// ActivityManager's system-restart recovery: the process comes straight
// back under the same name. The script considers the app continuously live
// — later events target the restarted incarnation. A runtime-dead target
// drops the fault.
func (d *driver) crashService(ex *kernel.Exec, ev Event) {
	sys := d.sys
	a, ok := d.live[ev.App]
	if !ok || a.Dead {
		return
	}
	wasFg := d.foreground == ev.App
	prevFg := d.foreground
	sys.CrashApp(ex, a)
	delete(d.live, ev.App)
	if wasFg {
		d.foreground = ""
	}
	w := d.byName[ev.App]
	restarted := apps.LaunchAs(sys, w, ev.App, d.cfg.DisableJIT)
	d.live[ev.App] = restarted
	sys.Inject.NoteRecovered()
	if w.Background {
		return
	}
	if wasFg {
		// The crashed activity held the screen; its restart takes it back.
		d.foreground = ev.App
		return
	}
	// It was behind another app: the restart happens in the background and
	// the previous foreground app keeps (formally, retakes) its slot.
	sys.PauseApp(ex, restarted)
	if prevFg != "" {
		if p, ok := d.live[prevFg]; ok && !p.Dead {
			sys.ResumeApp(ex, p)
		}
	}
}

// pauseForeground pauses the current foreground app, if any, unless it is
// the app about to take over.
func (d *driver) pauseForeground(ex *kernel.Exec, next string) {
	if d.foreground == "" || d.foreground == next {
		return
	}
	if a, ok := d.live[d.foreground]; ok {
		d.sys.PauseApp(ex, a)
	}
	d.foreground = ""
}
