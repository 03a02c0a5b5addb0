package android

import (
	"testing"

	"agave/internal/kernel"
	"agave/internal/sim"
)

// blockedApp boots a foreground app whose main thread finishes its launch
// handshake and then blocks without ever draining its looper — the ANR
// victim shape.
func blockedApp(sys *System, label string) *App {
	a := sys.NewApp(AppConfig{
		Process: "benchmark", Label: label, Foreground: true,
	})
	a.Start(func(ex *kernel.Exec, a *App) {
		ex.SleepFor(30 * sim.Second)
	})
	return a
}

// TestAnrTimeoutBoundaryIsStrict pins the watchdog's comparison exactly: a
// head message aged exactly anrTimeout at the observation instant is not an
// ANR; one tick past is. The flag latches for the episode and re-arms only
// after the looper drains.
func TestAnrTimeoutBoundaryIsStrict(t *testing.T) {
	k, sys := bootSystem(t)
	victim := blockedApp(sys, "wedged.app")
	inj := sys.Inject
	done := false
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		// Let the victim finish its launch handshake and park.
		ex.SleepFor(300 * sim.Millisecond)
		posted := ex.Now()
		victim.Looper.Post(ex, Message{What: 9})

		inj.scanForANRsAt(ex, posted+anrTimeout)
		if _, _, _, anrs := inj.Counts(); anrs != 0 {
			t.Errorf("blocked exactly at the timeout flagged %d ANRs, want 0 (comparison must be strict)", anrs)
		}
		inj.scanForANRsAt(ex, posted+anrTimeout+1)
		if _, _, _, anrs := inj.Counts(); anrs != 1 {
			t.Errorf("blocked one tick past the timeout flagged %d ANRs, want 1", anrs)
		}
		inj.scanForANRsAt(ex, posted+anrTimeout+anrPollPeriod)
		if _, _, _, anrs := inj.Counts(); anrs != 1 {
			t.Errorf("same episode re-flagged: %d ANRs, want 1 (latch)", anrs)
		}

		// Drain the looper: the latch re-arms, and a fresh blocked episode
		// is a second ANR.
		for _, ok := victim.Looper.q.TryRecv(); ok; _, ok = victim.Looper.q.TryRecv() {
		}
		inj.scanForANRsAt(ex, posted+anrTimeout+2*anrPollPeriod)
		reposted := ex.Now()
		victim.Looper.Post(ex, Message{What: 10})
		inj.scanForANRsAt(ex, reposted+anrTimeout+1)
		if _, _, _, anrs := inj.Counts(); anrs != 2 {
			t.Errorf("new blocked episode after a drain flagged %d ANRs total, want 2", anrs)
		}
		done = true
	})
	// Short run: the concurrent real watchdog never sees the head message
	// aged past the timeout in real simulated time.
	k.Run(1 * sim.Second)
	if !done {
		t.Fatal("probe thread never finished")
	}
}

// TestAnrDuringInFlightSwipeFeedsInputStats drives a swipe at a wedged
// foreground app: the dispatcher delivers the samples into the blocked
// looper, the running watchdog raises exactly one (latched) ANR for the
// episode, and the per-target input statistics carry both the undelivered
// samples and the ANR count.
func TestAnrDuringInFlightSwipeFeedsInputStats(t *testing.T) {
	k, sys := bootSystem(t)
	victim := blockedApp(sys, "wedged.app")
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		ex.SleepFor(200 * sim.Millisecond)
		sys.InjectSwipe(ex, "wedged.app")
	})
	k.Run(4 * sim.Second)
	if victim.Dead {
		t.Fatal("victim died")
	}
	if _, _, _, anrs := sys.Inject.Counts(); anrs != 1 {
		t.Fatalf("wedged app with pending input flagged %d ANRs, want exactly 1 (latched episode)", anrs)
	}
	st := sys.InputStats()
	if len(st) != 1 || st[0].App != "wedged.app" {
		t.Fatalf("input stats = %+v, want one wedged.app entry", st)
	}
	if st[0].Injected != 5 || st[0].Dispatched != 0 || st[0].Dropped != 5 {
		t.Fatalf("swipe at wedged app: injected/dispatched/dropped = %d/%d/%d, want 5/0/5",
			st[0].Injected, st[0].Dispatched, st[0].Dropped)
	}
	if st[0].ANRs != 1 {
		t.Fatalf("per-app ANR count = %d, want 1", st[0].ANRs)
	}
}

// TestFaultAtDeadTargetDropsWithoutPanic: every injection primitive aimed at
// a runtime-dead (or never-existing) target must drop cleanly — report
// false, count nothing, never panic.
func TestFaultAtDeadTargetDropsWithoutPanic(t *testing.T) {
	k, sys := bootSystem(t)
	victim := sys.NewApp(AppConfig{Process: "benchmark", Label: "doomed.app", Foreground: true})
	victim.Start(func(ex *kernel.Exec, a *App) {
		ex.SleepFor(30 * sim.Second)
	})
	done := false
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		ex.SleepFor(300 * sim.Millisecond)
		sys.KillApp(ex, victim)
		if sys.InjectBinderFault(ex, "doomed.app") {
			t.Error("binder fault at a dead app reported injected")
		}
		if sys.InjectCorruptParcel(ex, "doomed.app") {
			t.Error("corrupt parcel at a dead app reported injected")
		}
		sys.CrashApp(ex, victim) // already dead: must be a no-op
		if sys.InjectBinderFault(ex, "no.such.app") {
			t.Error("binder fault at an unknown label reported injected")
		}
		done = true
	})
	k.Run(1 * sim.Second)
	if !done {
		t.Fatal("probe thread never finished")
	}
	if inj, det, rec, anrs := sys.Inject.Counts(); inj != 0 || det != 0 || rec != 0 || anrs != 0 {
		t.Fatalf("dropped faults moved the scoreboard: %d/%d/%d/%d, want 0/0/0/0", inj, det, rec, anrs)
	}
}

// TestInjectedFaultsAreCountedAndDetected: a binder fault fires on the
// framework's own ping (the armed error is the detection), and a corrupt
// parcel forces the receiving endpoint through its error path, which reports
// the detection from the app side.
func TestInjectedFaultsAreCountedAndDetected(t *testing.T) {
	k, sys := bootSystem(t)
	blockedApp(sys, "target.app")
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		ex.SleepFor(300 * sim.Millisecond)
		if !sys.InjectBinderFault(ex, "target.app") {
			t.Error("binder fault at a live app dropped")
		}
		if !sys.InjectCorruptParcel(ex, "target.app") {
			t.Error("corrupt parcel at a live app dropped")
		}
	})
	k.Run(2 * sim.Second)
	inj, det, rec, _ := sys.Inject.Counts()
	if inj != 2 {
		t.Fatalf("injected = %d, want 2", inj)
	}
	if det != 2 {
		t.Fatalf("detected = %d, want 2 (armed fault on the ping + receiver error path)", det)
	}
	if rec != 0 {
		t.Fatalf("recovered = %d, want 0 (nothing was restarted)", rec)
	}
}

// TestCrashMediaserverAdoptsInFlightSessions: a playing session survives the
// mediaserver being killed — the replacement adopts it under its old id, the
// client's existing handle keeps working, and the scoreboard counts the
// restart plus the relaunched session as recoveries.
func TestCrashMediaserverAdoptsInFlightSessions(t *testing.T) {
	k, sys := bootSystem(t)
	oldMedia := sys.Media
	crashed := false
	k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		ex.SleepFor(500 * sim.Millisecond)
		if relaunched := sys.CrashMediaserver(ex); relaunched != 1 {
			t.Errorf("CrashMediaserver relaunched %d sessions, want 1", relaunched)
		}
		crashed = true
	})
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "music.app", Foreground: true})
	sought := false
	app.Start(func(ex *kernel.Exec, a *App) {
		p, err := mediaOpen(ex, sys, "mp3")
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Start(ex, sys.Binder); err != nil {
			t.Error(err)
			return
		}
		// Play across the crash at 500 ms, then drive the old handle
		// against the replacement server.
		ex.SleepFor(1 * sim.Second)
		if err := p.Seek(ex, sys.Binder); err != nil {
			t.Errorf("seek on adopted session: %v", err)
		}
		sought = true
	})
	k.Run(2 * sim.Second)
	if !crashed || !sought {
		t.Fatalf("crashed=%v sought=%v, want both", crashed, sought)
	}
	if sys.Media == oldMedia {
		t.Fatal("mediaserver was not replaced")
	}
	if sys.Media.MP3FramesDecoded == 0 {
		t.Fatal("no MP3 frames decoded across the restart (counters must carry over)")
	}
	inj, det, rec, _ := sys.Inject.Counts()
	if inj != 1 || det != 1 {
		t.Fatalf("injected/detected = %d/%d, want 1/1", inj, det)
	}
	if rec != 2 {
		t.Fatalf("recovered = %d, want 2 (the restart + one relaunched session)", rec)
	}
}

// TestAppDeathDrainsEndpoint: every way an app dies — a scripted KillApp, a
// CrashApp, and a lowmemorykiller kill reaped by the ActivityManager —
// leaves no transaction queued at the dead endpoint. The probe pings the
// endpoint oneway faster than its two binder threads serve, so pings are
// still queued when the app dies (for the lowmemorykiller it pings on until
// the reaper unregisters the endpoint, so the pings sent between the kill
// and the reap have no thread left to serve them); the teardown must abort
// them rather than leave them pending for good.
func TestAppDeathDrainsEndpoint(t *testing.T) {
	const pool = 2 // binder threads per app endpoint, one transaction in flight each
	ping := func(ex *kernel.Exec, sys *System) bool {
		return sys.Binder.CallOneway(ex, "app.victim.app", appPingCode, frameworkPingParcel("victim.app")) == nil
	}
	flood := func(ex *kernel.Exec, sys *System) int {
		n := 0
		for i := 0; i < 512; i++ {
			if ping(ex, sys) {
				n++
			}
		}
		return n
	}
	for _, death := range []struct {
		name string
		die  func(ex *kernel.Exec, sys *System, a *App) int // returns the pings sent
	}{
		{"kill", func(ex *kernel.Exec, sys *System, a *App) int {
			n := flood(ex, sys)
			sys.KillApp(ex, a)
			return n
		}},
		{"crash", func(ex *kernel.Exec, sys *System, a *App) int {
			n := flood(ex, sys)
			sys.CrashApp(ex, a)
			return n
		}},
		{"lmk", func(ex *kernel.Exec, sys *System, a *App) int {
			// Starve the machine: the lowmemorykiller takes the cached
			// victim and the ActivityManager reaps it.
			starve := int64(sys.K.FreePages())
			sys.K.Balloon(starve)
			n := 0
			for ping(ex, sys) {
				n++
			}
			sys.K.Balloon(-starve)
			return n
		}},
	} {
		t.Run(death.name, func(t *testing.T) {
			k := kernel.New(kernel.Config{
				Quantum:  100 * sim.Microsecond,
				MemPages: kernel.DefaultMemPages,
				MinFree:  kernel.DefaultMinFree(0),
			})
			t.Cleanup(k.Shutdown)
			sys := Boot(k)
			victim := blockedApp(sys, "victim.app")
			svc, ok := sys.Binder.Lookup("app.victim.app")
			if !ok {
				t.Fatal("victim endpoint not registered")
			}
			sent := -1
			k.SpawnThread(sys.SystemServer, "probe", "probe", func(ex *kernel.Exec) {
				ex.PushCode(sys.SystemServer.Layout.Text)
				ex.SleepFor(300 * sim.Millisecond)
				// Backgrounded, the victim is the cached app the killer
				// picks first.
				sys.PauseApp(ex, victim)
				sent = death.die(ex, sys, victim)
			})
			k.Run(2 * sim.Second)
			if sent < 0 || !victim.Dead {
				t.Fatalf("sent=%d dead=%v: the probe did not see the victim die", sent, victim.Dead)
			}
			if svc.Calls+pool >= uint64(sent) {
				t.Fatalf("the pool served %d of %d pings: none was left queued at the death", svc.Calls, sent)
			}
			if n := sys.Binder.AbortPending(svc); n != 0 {
				t.Fatalf("%d transactions still queued at the dead endpoint, want 0", n)
			}
		})
	}
}
