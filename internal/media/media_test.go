package media

import (
	"testing"

	"agave/internal/binder"
	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/sim"
	"agave/internal/stats"
)

func setup(t *testing.T) (*kernel.Kernel, *binder.Driver, *Server, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 21})
	t.Cleanup(k.Shutdown)
	d := binder.NewDriver(k)
	ss := k.NewProcess("system_server", 1<<20, 1<<20)
	ssLM := loader.Load(ss.AS, ss.Layout, []string{"libskia.so", "libsurfaceflinger.so"})
	comp := gfx.NewCompositor(ss, ssLM)
	ms := k.NewProcess("mediaserver", 1<<20, 1<<20)
	msLM := loader.Load(ms.AS, ms.Layout, loader.MediaServerSet())
	srv := NewServer(ms, msLM, d, comp)
	RegisterLookup(d, srv)
	client := k.NewProcess("benchmark", 1<<20, 1<<20)
	return k, d, srv, client
}

func TestOpenStartStopMP3(t *testing.T) {
	k, d, srv, client := setup(t)
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		p, err := Open(ex, d, "mp3")
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Start(ex, d); err != nil {
			t.Error(err)
		}
		ex.SleepFor(200 * sim.Millisecond)
		if n := srv.StopOwned(client); n != 1 {
			t.Errorf("StopOwned stopped %d sessions, want 1", n)
		}
	})
	k.Run(500 * sim.Millisecond)
	if srv.MP3FramesDecoded == 0 {
		t.Fatal("no MP3 frames decoded")
	}
	if srv.Mixes == 0 {
		t.Fatal("mixer never ran")
	}
	// Decode stops after StopOwned: frame count must plateau.
	n := srv.MP3FramesDecoded
	k.Run(700 * sim.Millisecond)
	if srv.MP3FramesDecoded > n+2 {
		t.Fatalf("decode continued after StopOwned: %d -> %d", n, srv.MP3FramesDecoded)
	}
}

func TestMP3AttributionRegions(t *testing.T) {
	k, d, _, client := setup(t)
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		p, _ := Open(ex, d, "mp3")
		_ = p.Start(ex, d)
		ex.SleepFor(300 * sim.Millisecond)
	})
	k.Run(400 * sim.Millisecond)
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libstagefright.so"] == 0 {
		t.Fatal("decoder fetched nothing from libstagefright.so")
	}
	data := k.Stats.ByRegion(stats.DataKinds...)
	if data["ashmem/audio-track"] == 0 {
		t.Fatal("no PCM traffic in the shared track buffer")
	}
	if data["/dev/eac"] == 0 {
		t.Fatal("mixer never wrote the audio device buffer")
	}
	byThread := k.Stats.ByThread()
	for _, name := range []string{"TimedEventQueue", "AudioTrackThread", "AudioOut"} {
		if byThread[name] == 0 {
			t.Errorf("thread group %q earned no references", name)
		}
	}
}

func TestMP4DecodesIntoSurface(t *testing.T) {
	k, d, srv, client := setup(t)
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		p, err := Open(ex, d, "mp4")
		if err != nil {
			t.Error(err)
			return
		}
		_ = p.Start(ex, d)
		ex.SleepFor(300 * sim.Millisecond)
	})
	k.Run(400 * sim.Millisecond)
	if srv.FramesDecoded == 0 {
		t.Fatal("no video frames decoded")
	}
	// mediaserver must dominate this machine's references (the paper's
	// gallery.mp4.view observation).
	bp := stats.NewBreakdown(k.Stats.ByProcess())
	if bp.Rows[0].Name != "mediaserver" {
		t.Fatalf("top process = %s, want mediaserver", bp.Rows[0].Name)
	}
}

func TestOpenUnknownKind(t *testing.T) {
	k, d, _, client := setup(t)
	ran := false
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		if _, err := Open(ex, d, "ogg"); err == nil {
			t.Error("Open accepted unknown kind")
		}
		ran = true
	})
	k.Run(10 * sim.Millisecond)
	if !ran {
		t.Fatal("client never ran")
	}
}

func TestSeekUnknownSession(t *testing.T) {
	k, d, srv, client := setup(t)
	ran := false
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		p := &Player{srv: srv, id: 999}
		if err := p.Seek(ex, d); err == nil {
			t.Error("Seek of unknown session succeeded")
		}
		ran = true
	})
	k.Run(10 * sim.Millisecond)
	if !ran {
		t.Fatal("client never ran")
	}
}

func TestStreamTrackRunsInClient(t *testing.T) {
	k, _, srv, client := setup(t)
	srv.StreamTrack(client)
	k.Run(200 * sim.Millisecond)
	byThread := k.Stats.ByThread()
	if byThread["AudioTrackThread"] == 0 {
		t.Fatal("client AudioTrackThread earned nothing")
	}
	byProc := k.Stats.ByProcess()
	if byProc["benchmark"] == 0 {
		t.Fatal("stream work not attributed to the client process")
	}
}

func TestDiskRefillsDriveAta(t *testing.T) {
	k, d, _, client := setup(t)
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		p, _ := Open(ex, d, "mp3")
		_ = p.Start(ex, d)
		ex.SleepFor(200 * sim.Millisecond)
	})
	k.Run(300 * sim.Millisecond)
	if k.Disk.BytesRead == 0 {
		t.Fatal("decoder never read from storage")
	}
	if k.Stats.ByProcess()["ata_sff/0"] == 0 {
		t.Fatal("ata_sff/0 earned no references")
	}
}
