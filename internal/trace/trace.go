// Package trace provides a sampled reference trace: a ring of attributed
// access records the kernel emits alongside the aggregate counters. The
// paper's methodology is aggregate-only; the trace exists for the tooling
// around it — debugging workload models, inspecting interleavings, and
// feeding downstream consumers (e.g. a cache simulator) the same attributed
// stream the counters summarize.
package trace

import (
	"fmt"

	"agave/internal/sim"
	"agave/internal/stats"
)

// Record is one sampled accounting event: n accesses of kind Kind by
// (Proc, Thread) against Region at simulated time When.
type Record struct {
	When   sim.Ticks
	Proc   string
	Thread string
	Region string
	Kind   stats.Kind
	N      uint64
}

// String renders the record in a grep-friendly single line.
func (r Record) String() string {
	return fmt.Sprintf("%d %s/%s %s %s x%d", r.When, r.Proc, r.Thread, r.Region, r.Kind, r.N)
}

// Ring is a fixed-capacity sampling trace buffer. Every Sample-th accounting
// event is recorded; when full, the oldest records are overwritten. The zero
// value is unusable; call NewRing.
type Ring struct {
	records []Record
	next    int
	full    bool

	// Sample keeps every Sample-th event (1 = everything).
	Sample uint64
	seen   uint64

	// Dropped counts events skipped by sampling.
	Dropped uint64
}

// NewRing returns a ring holding up to capacity records, keeping every
// sample-th event.
func NewRing(capacity int, sample uint64) *Ring {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	if sample == 0 {
		sample = 1
	}
	return &Ring{records: make([]Record, 0, capacity), Sample: sample}
}

// Emit offers an event to the ring; it implements the kernel's Tracer hook.
func (g *Ring) Emit(when sim.Ticks, proc, thread, region string, kind stats.Kind, n uint64) {
	g.seen++
	if g.seen%g.Sample != 0 {
		g.Dropped++
		return
	}
	rec := Record{When: when, Proc: proc, Thread: thread, Region: region, Kind: kind, N: n}
	if len(g.records) < cap(g.records) {
		g.records = append(g.records, rec)
		return
	}
	g.full = true
	g.records[g.next] = rec
	g.next = (g.next + 1) % cap(g.records)
}

// Len reports the number of retained records.
func (g *Ring) Len() int { return len(g.records) }

// Records returns retained records in arrival order.
func (g *Ring) Records() []Record {
	if !g.full {
		return append([]Record(nil), g.records...)
	}
	out := make([]Record, 0, len(g.records))
	out = append(out, g.records[g.next:]...)
	out = append(out, g.records[:g.next]...)
	return out
}

// Filter returns the retained records matching pred, in order.
func (g *Ring) Filter(pred func(Record) bool) []Record {
	var out []Record
	for _, r := range g.Records() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Totals folds the retained records back into (region → count) — useful for
// checking that a sampled trace is a faithful thinning of the aggregate
// counters.
func (g *Ring) Totals() map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range g.Records() {
		out[r.Region] += r.N
	}
	return out
}
