package apps

import (
	"testing"

	"agave/internal/android"
	"agave/internal/kernel"
	"agave/internal/sim"
)

// TestTapScrubsMediaPlayerThroughDispatcher drives the whole input pipeline
// across four layers: a driver thread injects taps, system_server's
// InputDispatcher routes them to the focused Music app, the app's main
// thread runs its seekbar handler at the next looper drain, and the handler
// scrubs the track — a Binder transaction into mediaserver whose demux walk
// and bitstream resync are visible as served seeks.
func TestTapScrubsMediaPlayerThroughDispatcher(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	t.Cleanup(k.Shutdown)
	sys := android.Boot(k)
	w, err := ByName("music.mp3.view")
	if err != nil {
		t.Fatal(err)
	}
	Launch(sys, w, "benchmark", w.Name, false)
	k.SpawnThread(sys.SystemServer, "test-input", "test-input", func(ex *kernel.Exec) {
		ex.PushCode(sys.SystemServer.Layout.Text)
		for _, at := range []sim.Ticks{350, 600, 850} {
			ex.SleepUntil(at * sim.Millisecond)
			sys.InjectTap(ex, "music.mp3.view")
		}
		ex.Wait(k.NewWaitQueue("test-input.done"))
	})
	k.Run(1300 * sim.Millisecond)

	stats := sys.InputStats()
	if len(stats) != 1 || stats[0].App != "music.mp3.view" {
		t.Fatalf("input stats = %+v, want one music.mp3.view record", stats)
	}
	st := stats[0]
	if st.Injected != 6 { // three taps, two samples each
		t.Fatalf("injected %d samples, want 6", st.Injected)
	}
	if st.Dispatched == 0 {
		t.Fatalf("no tap reached the app (dropped %d)", st.Dropped)
	}
	if st.Dispatched+st.Dropped != st.Injected {
		t.Fatalf("accounting leak: %d + %d != %d", st.Dispatched, st.Dropped, st.Injected)
	}
	if st.LatencySum == 0 || st.LatencyMax < st.LatencyMin {
		t.Fatalf("latency stats malformed: %+v", st)
	}
	if sys.Media.Seeks == 0 {
		t.Fatal("dispatched taps never seeked the media session")
	}
}
