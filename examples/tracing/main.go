// Tracing: attach the sampled reference trace to a running machine and
// watch the attributed stream behind the paper's counters — who touched
// what, when. Useful for debugging workload models or feeding downstream
// consumers (e.g. a cache simulator) the same attributed events.
package main

import (
	"flag"
	"fmt"
	"log"

	"agave/internal/android"
	"agave/internal/apps"
	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/trace"
)

func main() {
	durationMS := flag.Int64("duration", 500, "simulated milliseconds to run")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 3})
	defer k.Shutdown()

	// Keep every 64th accounting event, up to 4096 records.
	ring := trace.NewRing(4096, 64)
	trace.Attach(ring, k)

	sys := android.Boot(k)
	w, err := apps.ByName("countdown.main")
	if err != nil {
		panic(err)
	}
	apps.Launch(sys, w, "benchmark", w.Name, false)
	k.Run(sim.Ticks(*durationMS) * sim.Millisecond)

	fmt.Printf("captured %d records (%d dropped by sampling)\n", ring.Len(), ring.Dropped)

	fmt.Println("\nlast few SurfaceFlinger events:")
	sf := ring.Filter(func(r trace.Record) bool { return r.Thread == "SurfaceFlinger" })
	for i := max(0, len(sf)-5); i < len(sf); i++ {
		fmt.Println(" ", sf[i])
	}

	fmt.Println("\nsampled per-region totals (top of the fold):")
	tot := ring.Totals()
	for _, region := range []string{"mspace", "fb0 (frame buffer)", "gralloc-buffer", "OS kernel"} {
		fmt.Printf("  %-22s %d\n", region, tot[region])
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
