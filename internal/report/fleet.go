package report

import (
	"encoding/json"
	"fmt"
	"io"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/suite"
)

// FleetLine renders one core run as its fleet wire line: plan index, unit
// name, per-run stats fingerprint, and the suite metrics as a name-sorted
// slice (collected from the metrics map, then sorted — the wire order is
// canonical regardless of map iteration).
func FleetLine(spec suite.RunSpec, r *core.Result) fleet.Line {
	metrics := core.SuiteMetrics(r)
	line := fleet.Line{
		Index:       spec.Index,
		Unit:        spec.UnitName(),
		Seed:        spec.Seed,
		Ablation:    spec.Ablation.Label(),
		Fingerprint: r.Stats.Fingerprint(),
		Metrics:     make([]fleet.Metric, 0, len(metrics)),
	}
	for name, v := range metrics {
		line.Metrics = append(line.Metrics, fleet.Metric{Name: name, Value: v}) //agave:allow maporder collect-then-sort: SortMetrics below fixes the canonical order before anything reads the slice
	}
	line.SortMetrics()
	return line
}

// WriteFleetText renders the fleet report as the operator-facing table: one
// line per (unit, ablation) cell plus the run fingerprint. Everything
// printed derives from the report alone, so serial, fleet, and resumed runs
// print identically.
func WriteFleetText(w io.Writer, r *fleet.Report) {
	fmt.Fprintf(w, "fleet: %d runs in %d shards of %d\n", r.Runs, r.Shards, r.ShardSize)
	fmt.Fprintf(w, "%-28s %-10s %5s %36s\n", "unit", "ablation", "runs", "total refs mean [min, max]")
	for _, c := range r.Cells {
		refs := "-"
		if a, ok := c.Metric("total_refs"); ok {
			refs = fmt.Sprintf("%.0f [%.0f, %.0f]", a.Mean(), a.Min(), a.Max())
		}
		fmt.Fprintf(w, "%-28s %-10s %5d %36s\n", c.Unit, c.Ablation, c.Runs, refs)
	}
	fmt.Fprintf(w, "fingerprint: %s\n", r.Fingerprint)
}

// WriteFleetJSON renders the fleet report as indented canonical JSON — the
// byte-comparable artifact the equivalence and resume tests diff.
func WriteFleetJSON(w io.Writer, r *fleet.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
