// Suite: execute a run matrix — benchmarks × seeds × ablations — on the
// parallel suite pool, print each run in deterministic plan order once the
// sweep returns, and fold the repeated seeds into mean/min/max summaries.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"agave/internal/core"
	"agave/internal/report"
	"agave/internal/sim"
	"agave/internal/suite"
)

func main() {
	durationMS := flag.Int64("duration", 300, "measured simulated milliseconds per run")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	cfg := core.DefaultConfig()
	cfg.Duration = sim.Ticks(*durationMS) * sim.Millisecond // default keeps the demo snappy
	cfg.Warmup = 200 * sim.Millisecond

	// 3 benchmarks × 2 seeds × 2 ablations = 12 runs.
	plan := suite.Plan{
		Benchmarks: []string{"frozenbubble.main", "gallery.mp4.view", "401.bzip2"},
		Seeds:      []uint64{1, 2},
		Ablations: []suite.Ablation{
			suite.Baseline,
			{Name: "nojit", DisableJIT: true},
		},
	}

	// The suite pool runs one worker per core; every output still lands at
	// its plan position, so the rows below — and every result — are
	// bit-identical to a serial run.
	outputs, err := core.RunPlan(cfg, plan, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outputs {
		fmt.Printf("done %-40s %8.1f ms wall, %6.0f Mticks/s\n",
			o.Spec, float64(o.Wall.Microseconds())/1000, o.TicksPerSecond()/1e6)
	}

	fmt.Println()
	report.WriteMatrix(os.Stdout, outputs)

	fmt.Println()
	report.WriteSummaries(os.Stdout, outputs)
}
