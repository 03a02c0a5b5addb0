package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// façade call it makes. Times are host nanoseconds since the recorder's
// epoch. Parent is -1 for a root. Spans of one plan spec share a Trace id;
// spans outside any spec carry trace 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how the same pass code runs with
// tracing off. Spans nest strictly: end closes the innermost open span.
type recorder struct {
	epoch  time.Time
	spans  []span
	open   []int
	traces int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one. trace 0 inherits the
// parent's trace id.
func (r *recorder) begin(name, label string, trace int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		if trace == 0 {
			trace = r.spans[parent].Trace
		}
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Label: label,
		Start: time.Since(r.epoch).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.epoch).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// trace hands out a fresh trace id for one plan spec (0 when off).
func (r *recorder) trace() int {
	if r == nil {
		return 0
	}
	r.traces++
	return r.traces
}

// children indexes each span's direct children.
func children(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered is the length of [lo, hi) covered by the union of the given
// spans, each clipped to that interval: children that overlap each other
// are counted once.
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].Start, lo), min(spans[id].End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTimes is each span's duration minus the part of it its children
// cover: the time charged to that layer alone.
func selfTimes(spans []span) []int64 {
	kids := children(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, kids[i], s.Start, s.End)
	}
	return self
}
