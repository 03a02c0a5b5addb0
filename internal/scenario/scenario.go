// Package scenario is the scripted multi-app session engine of the Agave
// reproduction. The paper's central argument is that Android's behavior
// emerges from interaction across the stack — yet classic benchmark runs
// boot one app and hold it foreground for the whole measured interval. A
// Scenario instead scripts a deterministic timeline of lifecycle events
// (Launch, SwitchTo, Background, Kill, Idle), memory pressure, input
// gestures (Tap, Key, Swipe — delivered through system_server's
// InputDispatcher to the focused app's looper), and injected faults
// (FaultBinder, CrashService, KillMediaserver, CorruptParcel — driven
// through the framework's injection plane, with ActivityManager-style
// recovery and an ANR watchdog measuring the fallout) over several named
// apps drawn from the existing workload suite: apps launch mid-measurement,
// pause and resume through their main-thread loopers, die under
// ActivityManager teardown, run concurrently under the ordinary scheduler
// quantum, and do input-driven work that moves the measured CPU and memory
// profile.
// Every reference is attributed per (process, thread, region) exactly as in
// single-app runs — each app is its own process — so stats.Fingerprint
// remains the determinism and comparison primitive.
//
// Event times are expressed as thousandths of the measured interval, so a
// scenario's shape is duration-invariant: a 150 ms regression run and a
// 10 s measurement run execute the same session, scaled.
//
// The package scripts sessions; it never creates a machine. The runner in
// internal/core boots the memory-pressure kernel, warms it up and resets
// the counters, then Start spawns the ScenarioDriver thread that applies
// the timeline, and Finish completes the script and reports the session
// outcome; the runner takes the census.
package scenario

import (
	"fmt"
	"sort"

	"agave/internal/apps"
	"agave/internal/sim"
)

// Kind is a lifecycle event type.
type Kind uint8

// Timeline event kinds.
const (
	// Launch forks the app from zygote and starts its workload; the
	// launched app takes the foreground (unless its workload is a
	// background service), pausing whichever app held it.
	Launch Kind = iota
	// SwitchTo brings an already-running app to the foreground, pausing
	// the current foreground app.
	SwitchTo
	// Background pauses the app without bringing another forward.
	Background
	// Kill tears the app's process down (ActivityManager process death):
	// threads terminate, media sessions stop, the binder endpoint is
	// unregistered. The app may be launched again later in the timeline.
	Kill
	// Idle marks a deliberate gap in the session; the system runs
	// undisturbed. It names no app.
	Idle
	// Pressure inflates (Pages > 0) or deflates (Pages < 0) the machine's
	// external memory demand — the rest of the device wanting RAM. It
	// names no app: which processes die as a consequence is the
	// lowmemorykiller's decision, not the script's.
	Pressure
	// Tap injects a touch tap (a down/up pair) aimed at the named app.
	// Input events travel through system_server's InputDispatcher to the
	// focused app's looper; a tap aimed at an app that is dead, paused,
	// or simply not foreground is dropped and counted, never an error —
	// so unlike the lifecycle kinds, input events may legally target an
	// app at any point of the timeline.
	Tap
	// Key injects a single key press aimed at the named app, under the
	// same focus-or-drop delivery rule as Tap.
	Key
	// Swipe injects a multi-sample touch gesture (down, moves, up) aimed
	// at the named app, under the same focus-or-drop delivery rule.
	Swipe
	// FaultBinder arms a one-shot binder transaction failure on the named
	// app's service endpoint and drives a framework callback into it, so
	// the transaction returns an error to the sender instead of reaching
	// the app. The target must be live when the event fires; a target that
	// died at run time (say, under the lowmemorykiller) drops the fault.
	FaultBinder
	// CrashService kills the named app's process the way a native crash
	// does — no orderly destroy transaction — and lets the
	// ActivityManager's system-restart recovery relaunch it. The app stays
	// "live" from the script's point of view: later events may target it.
	CrashService
	// KillMediaserver kills the mediaserver process outright and restarts
	// it, init-style. In-flight player sessions are torn down with the old
	// process and relaunched on the replacement under their old handles.
	// It names no app.
	KillMediaserver
	// CorruptParcel sends the named app's service endpoint a deliberately
	// malformed parcel, forcing the receiver through its error path. Like
	// FaultBinder it needs a live target at fire time.
	CorruptParcel
)

// String names the event kind as scripts spell it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fraction is a position within the measured interval, in thousandths:
// 0 is measurement start, 1000 the end.
type Fraction int

// Event is one step of a scenario timeline.
type Event struct {
	// At places the event within the measured interval.
	At Fraction
	// Kind is the lifecycle transition to drive.
	Kind Kind
	// App names the target (a Scenario.Apps entry); empty for Idle and
	// Pressure.
	App string
	// Pages is the memory-demand delta of a Pressure event, in physical
	// pages (negative deflates); zero for every other kind.
	Pages int64
}

// String renders the event as "at=250 switchto maps".
func (e Event) String() string {
	if e.Kind == Pressure {
		return fmt.Sprintf("at=%d pressure %+dpg", e.At, e.Pages)
	}
	if e.App == "" {
		return fmt.Sprintf("at=%d %s", e.At, e.Kind)
	}
	return fmt.Sprintf("at=%d %s %s", e.At, e.Kind, e.App)
}

// App declares one application of a scenario: a short session-unique name
// (which becomes the process name in every report, as "benchmark" is for
// single-app runs) bound to an Agave workload.
type App struct {
	Name     string
	Workload string
}

// Scenario is a scripted multi-app session.
type Scenario struct {
	// Name identifies the scenario in plans, reports, and the CLI.
	Name string
	// Description is the one-line synopsis `agave scenario -list` prints.
	Description string
	// Apps declares the session's applications in launch-plan order.
	Apps []App
	// Timeline is the event script, ordered by At.
	Timeline []Event
	// Source records where the scenario came from: empty for the bundled
	// library, "file:<name>" for scenario documents loaded from disk,
	// "gen(...)" for generator output. Provenance describes the document's
	// origin, not the session, so it is never part of the JSON encoding —
	// a file-loaded copy of a bundled scenario replays bit-identically.
	Source string
}

// reservedNames are process names the booted system already owns; scenario
// apps may not take them (their binder endpoints would collide).
var reservedNames = map[string]bool{
	"launcher":  true,
	"systemui":  true,
	"benchmark": true,
}

// MaxLiveApps reports the largest number of scenario apps simultaneously
// alive (launched and not yet killed) at any point of the timeline.
func (s *Scenario) MaxLiveApps() int {
	live := make(map[string]bool)
	max := 0
	for _, ev := range s.Timeline {
		switch ev.Kind {
		case Launch:
			live[ev.App] = true
		case Kill:
			delete(live, ev.App)
		}
		if len(live) > max {
			max = len(live)
		}
	}
	return max
}

// livenessRule classifies how Validate holds an event kind against the
// script's live-app state. The rules used to live in an ad-hoc switch that
// exempted only the input kinds; the table generalizes the exemption so
// every kind declares its contract in one place and a new kind cannot
// silently fall through to a runtime panic.
type livenessRule uint8

const (
	// needsDead: the target must not be running (Launch).
	needsDead livenessRule = iota
	// needsLive: the target must be running at this point of the timeline.
	needsLive
	// killsTarget: needsLive, and the event removes the target from the
	// live set.
	killsTarget
	// needsLiveService: needsLive for a fault-injection kind. The script
	// must aim faults at services that exist — only runtime deaths (a
	// lowmemorykiller kill the script didn't write) downgrade a fault to a
	// silent drop. Violations report the timeline index, following the
	// codec's field-indexed error convention.
	needsLiveService
	// exemptTarget: any declared target is legal at any point — the event
	// resolves liveness at run time (input kinds drop at dead targets).
	exemptTarget
	// noTarget: the event names no app (Idle, Pressure, KillMediaserver).
	noTarget
)

// liveness is the per-kind validation contract. Every kind ParseKind
// accepts appears here; Validate rejects kinds it does not know.
var liveness = map[Kind]livenessRule{
	Launch:          needsDead,
	SwitchTo:        needsLive,
	Background:      needsLive,
	Kill:            killsTarget,
	Idle:            noTarget,
	Pressure:        noTarget,
	Tap:             exemptTarget,
	Key:             exemptTarget,
	Swipe:           exemptTarget,
	FaultBinder:     needsLiveService,
	CrashService:    needsLiveService,
	KillMediaserver: noTarget,
	CorruptParcel:   needsLiveService,
}

// Validate checks the scenario is well-formed and that its timeline is a
// legal lifecycle history per the liveness table: events in order, every
// event targeting a declared app, launches only of dead apps,
// switches/backgrounds/kills/faults only of live ones (CrashService leaves
// its target live — the ActivityManager restarts it in place). The engine
// runs only validated scenarios, so mid-run failures cannot occur.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if len(s.Apps) == 0 {
		return fmt.Errorf("scenario %s: no apps declared", s.Name)
	}
	declared := make(map[string]bool, len(s.Apps))
	for _, a := range s.Apps {
		if a.Name == "" {
			return fmt.Errorf("scenario %s: app with empty name", s.Name)
		}
		if reservedNames[a.Name] {
			return fmt.Errorf("scenario %s: app name %q is reserved by the booted system", s.Name, a.Name)
		}
		if declared[a.Name] {
			return fmt.Errorf("scenario %s: duplicate app %q", s.Name, a.Name)
		}
		if _, err := apps.ByName(a.Workload); err != nil {
			return fmt.Errorf("scenario %s: app %q: %v", s.Name, a.Name, err)
		}
		declared[a.Name] = true
	}
	if len(s.Timeline) == 0 {
		return fmt.Errorf("scenario %s: empty timeline", s.Name)
	}
	if !sort.SliceIsSorted(s.Timeline, func(i, j int) bool {
		return s.Timeline[i].At < s.Timeline[j].At
	}) {
		return fmt.Errorf("scenario %s: timeline not ordered by At", s.Name)
	}
	live := make(map[string]bool)
	for i, ev := range s.Timeline {
		if ev.At < 0 || ev.At > 1000 {
			return fmt.Errorf("scenario %s: event %q outside [0,1000]", s.Name, ev)
		}
		if ev.Kind != Pressure && ev.Pages != 0 {
			return fmt.Errorf("scenario %s: event %q carries a page delta", s.Name, ev)
		}
		rule, known := liveness[ev.Kind]
		if !known {
			return fmt.Errorf("scenario %s: event %q has unknown kind", s.Name, ev)
		}
		if rule == noTarget {
			if ev.App != "" {
				return fmt.Errorf("scenario %s: %s event names app %q", s.Name, ev.Kind, ev.App)
			}
			if ev.Kind == Pressure && ev.Pages == 0 {
				return fmt.Errorf("scenario %s: pressure event with zero page delta", s.Name)
			}
			continue
		}
		if !declared[ev.App] {
			return fmt.Errorf("scenario %s: event %q targets undeclared app", s.Name, ev)
		}
		switch rule {
		case exemptTarget:
			// Input events are exempt from the liveness rules: a tap at
			// a dead or backgrounded app is a legal script — the
			// dispatcher drops it at run time and the report counts it.
		case needsDead:
			if live[ev.App] {
				return fmt.Errorf("scenario %s: event %q launches an app that is already running", s.Name, ev)
			}
			live[ev.App] = true
		case needsLive:
			if !live[ev.App] {
				return fmt.Errorf("scenario %s: event %q targets an app that is not running", s.Name, ev)
			}
		case killsTarget:
			if !live[ev.App] {
				return fmt.Errorf("scenario %s: event %q kills an app that is not running", s.Name, ev)
			}
			delete(live, ev.App)
		case needsLiveService:
			if !live[ev.App] {
				return fmt.Errorf("scenario %s: timeline[%d]: event %q injects a fault into an app that is not running", s.Name, i, ev)
			}
		}
	}
	return nil
}

// at resolves the event's position to an absolute simulated time within a
// measured interval beginning at start and lasting duration. The interval is
// half-open — the machine stops the instant the clock reaches
// start+duration — so At=1000 is clamped to the final measured tick; without
// the clamp an end-of-interval event would land one tick past the last
// measured one and its effects would fall outside the measurement. Events
// close to the end may still land beyond the scheduling horizon (a quantum
// can overshoot the deadline); Session.Finish keeps stepping the machine until
// the script has fully executed, so they are applied, never dropped.
func (e Event) at(start, duration sim.Ticks) sim.Ticks {
	t := start + duration*sim.Ticks(e.At)/1000
	if end := start + duration; t >= end {
		t = end - 1
	}
	return t
}
