package kernel

import (
	"testing"

	"agave/internal/mem"
	"agave/internal/sim"
)

func pressureConfig(memPages uint64) Config {
	return Config{
		Quantum:  sim.Millisecond,
		Seed:     1,
		MemPages: memPages,
		MinFree:  DefaultMinFree(0),
	}
}

func TestDefaultMinFreeLadder(t *testing.T) {
	ladder := DefaultMinFree(8000)
	if len(ladder) != 3 {
		t.Fatalf("ladder has %d rungs", len(ladder))
	}
	if ladder[0].Pages != 8000 || ladder[0].Adj != OomCachedMin {
		t.Fatalf("cached rung = %+v", ladder[0])
	}
	if ladder[1].Pages != 4000 || ladder[1].Adj != OomVisible {
		t.Fatalf("visible rung = %+v", ladder[1])
	}
	if ladder[2].Pages != 2000 || ladder[2].Adj != OomForeground {
		t.Fatalf("foreground rung = %+v", ladder[2])
	}
	if DefaultMinFree(0)[0].Pages != DefaultMinFreePages {
		t.Fatal("zero waterline did not fall back to the default")
	}
}

// TestFreePagesAccounting: process mappings and the balloon both draw down
// the budget, and killing a process returns its pages.
func TestFreePagesAccounting(t *testing.T) {
	k := New(pressureConfig(10000))
	defer k.Shutdown()
	base := k.FreePages()
	p := k.NewProcess("victim", 64<<10, 256<<10)
	v := p.Layout.MapAnon(p.AS, 100*mem.PageSize)
	_ = v
	after := k.FreePages()
	if after >= base {
		t.Fatalf("mapping did not draw down the budget: %d -> %d", base, after)
	}
	k.Balloon(500)
	if got := k.FreePages(); got != after-500 {
		t.Fatalf("balloon: free = %d, want %d", got, after-500)
	}
	k.Balloon(-500)
	if got := k.FreePages(); got != after {
		t.Fatalf("balloon deflate: free = %d, want %d", got, after)
	}
	k.KillProcess(p)
	if got := k.FreePages(); got != base {
		t.Fatalf("kill did not return pages: free = %d, want %d", got, base)
	}
	// Releasing twice must not double-credit.
	k.KillProcess(p)
	if got := k.FreePages(); got != base {
		t.Fatalf("double kill double-credited: free = %d, want %d", got, base)
	}
}

// TestLMKKillsByAdjOrder drives the killer directly: under deepening
// pressure the highest-oom_adj process dies first, ties break by RSS, and
// OomNeverKill processes are untouchable.
func TestLMKKillsByAdjOrder(t *testing.T) {
	k := New(pressureConfig(200_000))
	defer k.Shutdown()
	if !k.LMKEnabled() {
		t.Fatal("LMK not enabled")
	}
	park := func(p *Process) {
		k.SpawnThread(p, "main", "main", func(ex *Exec) {
			ex.Wait(k.NewWaitQueue(p.Name + ".park"))
		})
	}
	mk := func(name string, adj int, extraPages uint64) *Process {
		p := k.NewProcess(name, 64<<10, 256<<10)
		p.OomAdj = adj
		if extraPages > 0 {
			p.Layout.MapAnon(p.AS, extraPages*mem.PageSize)
		}
		park(p)
		return p
	}
	mk("cached-old", OomCachedMin+1, 0)
	mk("cached-new", OomCachedMin, 4000)
	visible := mk("visible", OomVisible, 0)
	fg := mk("foreground", OomForeground, 0)
	system := mk("system", OomNeverKill, 0)

	// Starve the machine below the cached rung but above the visible one,
	// deep enough that the first victim's released pages do not lift free
	// back over the rung on their own.
	k.Balloon(int64(k.FreePages() - DefaultMinFreePages + 3500))
	k.Run(k.Clock.Now() + 40*sim.Millisecond)
	if got := k.LMKVictims(); len(got) < 2 || got[0] != "cached-old" || got[1] != "cached-new" {
		t.Fatalf("cached-band victims = %v, want [cached-old cached-new ...]", got)
	}
	if visible.LiveThreads() == 0 || fg.LiveThreads() == 0 {
		t.Fatal("cached-band pressure killed a visible or foreground process")
	}

	// Deepen below the foreground rung: the visible process goes before
	// the foreground one.
	k.Balloon(int64(k.FreePages()) + 1000)
	k.Run(k.Clock.Now() + 20*sim.Millisecond)
	victims := k.LMKVictims()
	if len(victims) < 3 || victims[2] != "visible" {
		t.Fatalf("victims = %v, want visible third", victims)
	}
	k.Run(k.Clock.Now() + 20*sim.Millisecond)
	if system.LiveThreads() == 0 {
		t.Fatal("LMK killed an OomNeverKill process")
	}
	if k.LMKKills() != len(k.LMKVictims()) {
		t.Fatalf("kill count %d != victims %d", k.LMKKills(), len(k.LMKVictims()))
	}
	// Every kill was announced on the death queue for the framework side.
	if got := k.DeathQueue().Len(); got != k.LMKKills() {
		t.Fatalf("death queue holds %d announcements, want %d", got, k.LMKKills())
	}
}

// TestLMKTieBreaksByRSS: equal adj, bigger resident set dies first.
func TestLMKTieBreaksByRSS(t *testing.T) {
	k := New(pressureConfig(200_000))
	defer k.Shutdown()
	small := k.NewProcess("small", 64<<10, 256<<10)
	big := k.NewProcess("big", 64<<10, 256<<10)
	big.Layout.MapAnon(big.AS, 5000*mem.PageSize)
	small.OomAdj, big.OomAdj = OomCachedMin, OomCachedMin
	for _, p := range []*Process{small, big} {
		pp := p
		k.SpawnThread(pp, "main", "main", func(ex *Exec) {
			ex.Wait(k.NewWaitQueue(pp.Name + ".park"))
		})
	}
	k.Balloon(int64(k.FreePages() - 100))
	k.Run(k.Clock.Now() + 15*sim.Millisecond)
	if got := k.LMKVictims(); len(got) == 0 || got[0] != "big" {
		t.Fatalf("victims = %v, want big first (RSS tie-break)", got)
	}
}

// TestNoLMKWithoutConfig: the default machine has no killer, no kswapd0
// process, and an effectively infinite free-page pool.
func TestNoLMKWithoutConfig(t *testing.T) {
	k := New(Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	if k.LMKEnabled() {
		t.Fatal("LMK enabled without MemPages/MinFree")
	}
	if findProcess(k, "kswapd0") != nil {
		t.Fatal("kswapd0 spawned on an unconstrained machine")
	}
	if k.FreePages() != ^uint64(0) {
		t.Fatal("unconstrained machine reports finite free pages")
	}
	if k.DeathQueue() != nil {
		t.Fatal("death queue exists without the killer")
	}
}
