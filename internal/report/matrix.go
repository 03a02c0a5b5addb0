// Matrix-shaped output for suite-engine sweeps: per-run rows for every
// (benchmark, seed, ablation) cell of a plan, mean/min/max summaries across
// seeds, and a JSON export carrying both plus the per-run counter
// fingerprints the determinism harness compares.

package report

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/stats"
	"agave/internal/suite"
)

// MatrixRow is one completed run of a plan, flattened for rendering.
type MatrixRow struct {
	Benchmark   string  `json:"benchmark"`
	Seed        uint64  `json:"seed"`
	Ablation    string  `json:"ablation"`
	WallMS      float64 `json:"wall_ms"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	TotalRefs   uint64  `json:"total_refs"`
	Processes   int     `json:"processes"`
	Threads     int     `json:"threads"`
	CodeRegions int     `json:"code_regions"`
	DataRegions int     `json:"data_regions"`
	Checksum    uint64  `json:"checksum,omitempty"`
	Fingerprint uint64  `json:"fingerprint"`
}

// MatrixRows flattens suite outputs (skipping failed runs) in plan order.
func MatrixRows(outputs []suite.RunOutput[*core.Result]) []MatrixRow {
	rows := make([]MatrixRow, 0, len(outputs))
	for _, o := range outputs {
		if o.Err != nil || o.Result == nil {
			continue
		}
		r := o.Result
		rows = append(rows, MatrixRow{
			Benchmark:   o.Spec.UnitName(),
			Seed:        o.Spec.Seed,
			Ablation:    o.Spec.Ablation.Label(),
			WallMS:      float64(o.Wall.Microseconds()) / 1000,
			TicksPerSec: o.TicksPerSecond(),
			TotalRefs:   r.Stats.Total(),
			Processes:   r.Processes,
			Threads:     r.Threads,
			CodeRegions: r.CodeRegions,
			DataRegions: r.DataRegions,
			Checksum:    r.Checksum,
			Fingerprint: r.Stats.Fingerprint(),
		})
	}
	return rows
}

// WriteMatrix renders one line per run of a plan.
func WriteMatrix(w io.Writer, outputs []suite.RunOutput[*core.Result]) {
	fmt.Fprintf(w, "%-24s %6s %-10s %12s %6s %8s %9s %12s\n",
		"benchmark", "seed", "ablation", "total refs", "procs", "threads", "wall ms", "Mticks/s")
	for _, r := range MatrixRows(outputs) {
		fmt.Fprintf(w, "%-24s %6d %-10s %12d %6d %8d %9.1f %12.1f\n",
			r.Benchmark, r.Seed, r.Ablation, r.TotalRefs, r.Processes,
			r.Threads, r.WallMS, r.TicksPerSec/1e6)
	}
}

// aggJSON is the JSON shape of a stats.Agg fold.
type aggJSON struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func newAggJSON(a stats.Agg) aggJSON { return aggJSON{a.Mean(), a.Min(), a.Max()} }

// summaryJSON is the JSON shape of one (benchmark, ablation) summary.
type summaryJSON struct {
	Benchmark   string             `json:"benchmark"`
	Ablation    string             `json:"ablation"`
	Seeds       []uint64           `json:"seeds"`
	WallMS      aggJSON            `json:"wall_ms"`
	TicksPerSec aggJSON            `json:"ticks_per_sec"`
	Metrics     map[string]aggJSON `json:"metrics"`
}

// suiteJSON is the top-level JSON document of a suite sweep.
type suiteJSON struct {
	Plan      planJSON      `json:"plan"`
	Runs      []MatrixRow   `json:"runs"`
	Summaries []summaryJSON `json:"summaries"`
}

type planJSON struct {
	Benchmarks []string `json:"benchmarks"`
	Scenarios  []string `json:"scenarios,omitempty"`
	Seeds      []uint64 `json:"seeds"`
	Ablations  []string `json:"ablations"`
	Parallel   int      `json:"parallel"`
}

// summary is one (unit, ablation) cell of a sweep across its seeds. The
// per-run metrics fold through the fleet Cell — the same fold, over the same
// FleetLine, a fleet report's cells come from — while wall time and
// throughput are display-only folds that never enter a fleet line.
type summary struct {
	fleet.Cell
	seeds      []uint64
	wall, tput stats.Agg
}

// summarize groups successful outputs by (unit, ablation), in plan order of
// first appearance.
func summarize(outputs []suite.RunOutput[*core.Result]) []*summary {
	var sums []*summary
	index := make(map[[2]string]*summary)
	for _, o := range outputs {
		if o.Err != nil || o.Result == nil {
			continue
		}
		line := FleetLine(o.Spec, o.Result)
		k := [2]string{line.Unit, line.Ablation}
		s := index[k]
		if s == nil {
			s = &summary{Cell: fleet.Cell{Unit: line.Unit, Ablation: line.Ablation}}
			index[k] = s
			sums = append(sums, s)
		}
		s.Observe(line.Metrics)
		s.seeds = append(s.seeds, o.Spec.Seed)
		s.wall.Observe(float64(o.Wall) / float64(time.Millisecond))
		s.tput.Observe(o.TicksPerSecond())
	}
	return sums
}

// WriteSuiteJSON emits the full sweep — plan, per-run rows, and summaries —
// as one indented JSON document.
func WriteSuiteJSON(w io.Writer, p suite.Plan, parallel int,
	outputs []suite.RunOutput[*core.Result]) error {
	doc := suiteJSON{
		Plan: planJSON{Benchmarks: p.Benchmarks, Scenarios: p.ScenarioNames(),
			Seeds: p.Seeds, Parallel: parallel},
		Runs: MatrixRows(outputs),
	}
	for _, a := range p.Ablations {
		doc.Plan.Ablations = append(doc.Plan.Ablations, a.Label())
	}
	for _, s := range summarize(outputs) {
		sj := summaryJSON{
			Benchmark:   s.Unit,
			Ablation:    s.Ablation,
			Seeds:       s.seeds,
			WallMS:      newAggJSON(s.wall),
			TicksPerSec: newAggJSON(s.tput),
			Metrics:     make(map[string]aggJSON, len(s.Metrics)),
		}
		for _, m := range s.Metrics {
			sj.Metrics[m.Name] = newAggJSON(m.Agg)
		}
		doc.Summaries = append(doc.Summaries, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteSummaries renders the mean/min/max fold of a sweep: one line per
// (benchmark, ablation) cell, aggregated across that cell's seeds.
func WriteSummaries(w io.Writer, outputs []suite.RunOutput[*core.Result]) {
	fmt.Fprintf(w, "%-24s %-10s %5s %36s %22s\n",
		"benchmark", "ablation", "seeds", "total refs mean [min, max]", "wall ms mean")
	for _, s := range summarize(outputs) {
		refs, _ := s.Metric("total_refs")
		fmt.Fprintf(w, "%-24s %-10s %5d %20.0f [%.0f, %.0f] %15.1f\n",
			s.Unit, s.Ablation, len(s.seeds), refs.Mean(), refs.Min(), refs.Max(),
			s.wall.Mean())
	}
}
