// Scenariofile: declarative scenario authoring end to end. The suite's
// bundled sessions are Go code, but a session is really just data — a name,
// an app roster, and a timeline — so it can live in a JSON document instead.
// This example runs the whole loop:
//
//  1. Decode night-shift.json (embedded next to this file): a hand-authored
//     session the library does not ship — bedtime reading over background
//     radio, with taps and swipes delivered through the InputDispatcher to
//     whichever app holds the focus (the stale ones drop and are counted),
//     and a late pressure wave that squeezes the cached dictionary.
//  2. Run it through core.RunScenarioDef exactly as a bundled scenario
//     runs, and show the per-process attribution and pressure outcome.
//  3. Generate a session procedurally from a (seed, apps, events, pressure)
//     tuple, run it at 10 concurrently-live apps, and re-encode it to
//     canonical JSON — the document you would commit once a generated
//     session turns out to be an interesting regression case.
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"log"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
)

//go:embed night-shift.json
var nightShift []byte

func main() {
	durationMS := flag.Int64("duration", 1000, "measured simulated milliseconds")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	cfg := core.DefaultConfig()
	cfg.Duration = sim.Ticks(*durationMS) * sim.Millisecond

	// 1. A hand-authored scenario document, decoded by the strict codec.
	authored, err := scenario.Decode(nightShift)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded %q: %s\n", authored.Name, authored.Description)
	for _, ev := range authored.Timeline {
		fmt.Printf("  %s\n", ev)
	}

	// 2. Run it like any bundled session.
	run := func(sc *scenario.Scenario) {
		r, err := core.RunScenarioDef(sc, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := r.Session
		fmt.Printf("\n%d events over %d ms: %d references, %d processes (%d live at end), peak %d live apps\n",
			res.Events, *durationMS, r.Stats.Total(), r.Processes, r.LiveProcesses, res.MaxLive)
		if res.LMKKills > 0 || res.Trims > 0 {
			fmt.Printf("memory pressure: %d trims, %d lowmemorykiller kills %v\n",
				res.Trims, res.LMKKills, res.LMKVictims)
		}
		if res.InputEvents > 0 {
			fmt.Printf("input: %d samples injected, %d dispatched, %d dropped\n",
				res.InputEvents, res.InputDispatched, res.InputDropped)
			for _, st := range res.InputApps {
				if st.Dispatched == 0 {
					fmt.Printf("  %-10s 0 dispatched, %d dropped (unfocused, paused, or dead)\n",
						st.App, st.Dropped)
					continue
				}
				fmt.Printf("  %-10s %d dispatched, %d dropped, dispatch latency mean %.1f us (max %.1f)\n",
					st.App, st.Dispatched, st.Dropped,
					float64(st.LatencySum)/float64(st.Dispatched)/float64(sim.Microsecond),
					float64(st.LatencyMax)/float64(sim.Microsecond))
			}
		}
		fmt.Println("per-process attribution (top of the fold):")
		for _, row := range stats.NewBreakdown(r.Stats.ByProcess()).TopN(6) {
			fmt.Printf("  %-22s %6.2f%%\n", row.Name, row.Share*100)
		}
	}
	run(authored)

	// 3. A generated session: diversity as a sweep axis. Ten apps live at
	// once, default density, a mild pressure knob, and a burst of generated
	// input gestures chasing the focus around.
	gen := scenario.Generate(scenario.GenConfig{Seed: 7, Apps: 10, Pressure: 1, Inputs: 16})
	fmt.Printf("\ngenerated %q (%s): %d apps, %d events\n",
		gen.Name, gen.Source, len(gen.Apps), len(gen.Timeline))
	run(gen)

	// Re-encode the generated session: byte-stable canonical JSON, ready to
	// commit as a regression scenario.
	doc, err := scenario.Encode(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncanonical encoding: %d bytes (decode→encode is the identity)\n", len(doc))
}
