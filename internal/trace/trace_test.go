package trace

import (
	"strings"
	"testing"

	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/stats"
)

func TestRingKeepsArrivalOrder(t *testing.T) {
	g := NewRing(4, 1)
	for i := 0; i < 3; i++ {
		g.Emit(sim.Ticks(i), "p", "t", "r", stats.IFetch, uint64(i+1))
	}
	recs := g.Records()
	if len(recs) != 3 || recs[0].N != 1 || recs[2].N != 3 {
		t.Fatalf("records = %v", recs)
	}
}

func TestRingWrapsOldest(t *testing.T) {
	g := NewRing(3, 1)
	for i := 0; i < 5; i++ {
		g.Emit(sim.Ticks(i), "p", "t", "r", stats.IFetch, uint64(i))
	}
	recs := g.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].N != 2 || recs[2].N != 4 {
		t.Fatalf("wrap kept wrong records: %v", recs)
	}
}

func TestSampling(t *testing.T) {
	g := NewRing(100, 4)
	for i := 0; i < 40; i++ {
		g.Emit(0, "p", "t", "r", stats.DataRead, 1)
	}
	if g.Len() != 10 {
		t.Fatalf("kept %d of 40 at 1/4 sampling", g.Len())
	}
	if g.Dropped != 30 {
		t.Fatalf("dropped = %d", g.Dropped)
	}
}

func TestFilterAndTotals(t *testing.T) {
	g := NewRing(10, 1)
	g.Emit(1, "benchmark", "main", "dalvik-heap", stats.DataRead, 5)
	g.Emit(2, "system_server", "SurfaceFlinger", "fb0", stats.DataWrite, 7)
	heap := g.Filter(func(r Record) bool { return r.Region == "dalvik-heap" })
	if len(heap) != 1 || heap[0].N != 5 {
		t.Fatalf("filter = %v", heap)
	}
	tot := g.Totals()
	if tot["dalvik-heap"] != 5 || tot["fb0"] != 7 {
		t.Fatalf("totals = %v", tot)
	}
}

func TestRecordString(t *testing.T) {
	r := Record{When: 5, Proc: "p", Thread: "t", Region: "r", Kind: stats.DataWrite, N: 2}
	if got := r.String(); !strings.Contains(got, "p/t r dwrite x2") {
		t.Fatalf("String = %q", got)
	}
}

func TestAttachCapturesKernelEvents(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 1})
	defer k.Shutdown()
	g := NewRing(1024, 1)
	Attach(g, k)
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(100)
		ex.Read(p.Layout.Heap, 30)
	})
	k.Run(2 * sim.Millisecond)
	if g.Len() == 0 {
		t.Fatal("trace captured nothing")
	}
	app := g.Filter(func(r Record) bool { return r.Proc == "benchmark" && r.Region == "app binary" })
	if len(app) == 0 {
		t.Fatal("trace missing the app's fetch events")
	}
	// A full (unsampled) trace must fold back to the aggregate counters.
	tot := g.Totals()
	if tot["app binary"] != k.Stats.ByRegion(stats.IFetch)["app binary"] {
		t.Fatalf("trace totals diverge from counters: %d vs %d",
			tot["app binary"], k.Stats.ByRegion(stats.IFetch)["app binary"])
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewRing(0, 1)
}
