package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"agave/internal/core"
	"agave/internal/fleet"
)

// layerMetrics are the traced run's per-layer metrics, in report order.
// Every name here is listed in BENCHMARK.json's per_layer.
var layerMetrics = []metricDef{
	{"spec.run_ms", "ms"},
	{"spec.bzip2_ms", "ms"},
	{"apps.run_ms", "ms"},
	{"core.spec_ms_p50", "ms"},
	{"core.spec_ms_p95", "ms"},
	{"report.paper_ms", "ms"},
	{"android.boot_ms", "ms"},
	{"dalvik.interp_mbc_per_s", "Mbc/s"},
	{"dalvik.jit_mbc_per_s", "Mbc/s"},
	{"cpu.handoff_ns", "ns"},
	{"kernel.spawn_exit_us", "us"},
	{"kernel.kill_us", "us"},
	{"mem.map_ns", "ns"},
	{"mem.clone_us", "us"},
	{"binder.call_us", "us"},
	{"android.looper_ns", "ns"},
	{"stats.fingerprint_ms", "ms"},
	{"stats.by_process_ms", "ms"},
	{"scenario.decode_ms", "ms"},
	{"scenario.generate_ms", "ms"},
	{"fleet.worker_start_ms", "ms"},
	{"fleet.busy_frac", "frac"},
	{"fleet.decode_ns_per_line", "ns"},
	{"fleet.observe_ns_per_line", "ns"},
	{"fleet.checkpoint_append_ms", "ms"},
	{"fleet.checkpoint_open_ms", "ms"},
	{"stats.total_refs", "count"},
	{"kernel.processes", "count"},
	{"kernel.threads", "count"},
	{"kernel.lmk_kills", "count"},
	{"android.trims", "count"},
	{"android.input_dispatched", "count"},
	{"android.input_dropped", "count"},
	{"android.faults_injected", "count"},
	{"android.faults_detected", "count"},
	{"android.faults_recovered", "count"},
	{"android.anrs", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

// ledger is the traced in-process run. One iteration runs every workload's
// in-process pass with spans on — so each layer's span metric comes from
// the workload that exercises it — plus the target's pass with spans off
// (for the tracing overhead) and every probe. The target's exact counts,
// per-spec spans and trace coverage are the ones reported.
type ledger struct {
	agave  string
	dir    string
	target workload
	all    []workload
	want   map[string]*outcome // expected outcome per workload
	rec    *recorder
}

// passSpans runs w's in-process pass under a root span and returns the
// root plus its descendants — contiguous, since spans nest strictly —
// renumbered so the root is span 0.
func (l *ledger) passSpans(w workload) (*outcome, []span, error) {
	from := len(l.rec.spans)
	root := l.rec.begin("pass", w.name(), 0)
	o, err := w.inproc(l.rec)
	l.rec.end(root)
	if err != nil {
		return nil, nil, err
	}
	sub := append([]span(nil), l.rec.spans[from:]...)
	for i := range sub {
		sub[i].ID -= from
		sub[i].Parent = max(sub[i].Parent-from, -1)
	}
	return o, sub, nil
}

// sumMS totals the duration of the spans with the given name whose label
// passes keep (nil keeps all), in milliseconds, and counts them.
func sumMS(spans []span, name string, keep func(string) bool) (float64, int) {
	var ns int64
	n := 0
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s.Label)) {
			ns += s.dur()
			n++
		}
	}
	return float64(ns) / 1e6, n
}

// meanMS is the mean duration of the spans with the given name, in ms.
func meanMS(spans []span, name string) float64 {
	ms, n := sumMS(spans, name, nil)
	return ms / float64(max(n, 1))
}

func in(names []string) func(string) bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return func(s string) bool { return set[s] }
}

// specSpans are the per-spec core.Run* spans of a pass.
func specSpans(spans []span) []float64 {
	var ms []float64
	for _, s := range spans {
		switch s.Name {
		case "core.Run", "core.RunScenarioDef", "core.RunOne":
			ms = append(ms, float64(s.dur())/1e6)
		}
	}
	return ms
}

// nearestRank is the p-th percentile by the nearest-rank method.
func nearestRank(values []float64, p float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	i := int(float64(len(d))*p+0.999999) - 1
	return d[min(max(i, 0), len(d)-1)]
}

// iterate runs one ledger iteration and returns its metric values. Any
// pass whose outcome differs from the expected one is returned in bad.
func (l *ledger) iterate(i int) (vals map[string]float64, attempted int, bad []error, err error) {
	vals = make(map[string]float64, len(layerMetrics))
	var offWall time.Duration
	var tracedWall int64
	untraced := func() error {
		start := time.Now()
		o, err := l.target.inproc(nil)
		offWall = time.Since(start)
		attempted++
		if err == nil {
			if e := o.same(l.want[l.target.name()]); e != nil {
				bad = append(bad, fmt.Errorf("%s untraced pass: %w", l.target.name(), e))
			}
		}
		return err
	}
	// Alternate which of the traced and untraced target passes runs first,
	// so warm-up order does not bias the overhead estimate.
	if i%2 == 0 {
		if err := untraced(); err != nil {
			return nil, 0, nil, err
		}
	}
	for _, w := range l.all {
		o, spans, err := l.passSpans(w)
		if err != nil {
			return nil, 0, nil, err
		}
		attempted++
		if e := o.same(l.want[w.name()]); e != nil {
			bad = append(bad, fmt.Errorf("%s traced pass: %w", w.name(), e))
		}
		if w == l.target {
			root := spans[0]
			specs := specSpans(spans)
			vals["core.spec_ms_p50"] = nearestRank(specs, 0.50)
			vals["core.spec_ms_p95"] = nearestRank(specs, 0.95)
			kids := children(spans)
			vals["trace.coverage_frac"] = float64(covered(spans, kids[0], root.Start, root.End)) / float64(root.dur())
			tracedWall = root.dur()
			for k, v := range o.counts {
				vals[k] = v
			}
		}
		switch w := w.(type) {
		case *paperSuite:
			vals["spec.run_ms"], _ = sumMS(spans, "core.Run", in(core.SPECNames()))
			vals["spec.bzip2_ms"], _ = sumMS(spans, "core.Run", in([]string{"401.bzip2"}))
			vals["apps.run_ms"], _ = sumMS(spans, "core.Run", in(core.AgaveNames()))
			vals["report.paper_ms"], _ = sumMS(spans, "report.paper", nil)
		case *denseSession:
			vals["stats.fingerprint_ms"] = meanMS(spans, "stats.Fingerprint") / statsReps
			vals["stats.by_process_ms"] = meanMS(spans, "stats.ByProcess") / statsReps
			vals["scenario.decode_ms"] = meanMS(spans, "scenario.Decode")
		case *fleetChaos:
			vals["scenario.generate_ms"], _ = sumMS(spans, "scenario.Generate", nil)
			vals["fleet.checkpoint_append_ms"] = meanMS(spans, "fleet.Checkpoint.Append")
			vals["fleet.checkpoint_open_ms"], _ = sumMS(spans, "fleet.OpenCheckpoint", nil)
			busy, _ := sumMS(spans, "core.RunOne", nil)
			wall, e := l.fleetRun(w, o)
			attempted++
			if e != nil {
				bad = append(bad, e)
			}
			vals["fleet.busy_frac"] = busy / (float64(w.workers) * wall)
			dec, obs, err := probeLineCodec(o.fleetLines, w.shardSize)
			if err != nil {
				return nil, 0, nil, err
			}
			vals["fleet.decode_ns_per_line"], vals["fleet.observe_ns_per_line"] = dec, obs
			cfg := config(w.seed, w.durationMS, w.warmupMS)
			if vals["fleet.worker_start_ms"], err = l.probe("fleet.worker_start_ms", func() (float64, error) {
				return probeWorkerStart(l.agave, cfg, w.bench)
			}); err != nil {
				return nil, 0, nil, err
			}
		}
	}
	if i%2 == 1 {
		if err := untraced(); err != nil {
			return nil, 0, nil, err
		}
	}
	vals["trace.overhead_frac"] = float64(tracedWall-offWall.Nanoseconds()) / float64(offWall.Nanoseconds())

	for _, p := range []struct {
		name string
		fn   func() (float64, error)
	}{
		{"android.boot_ms", probeBoot},
		{"dalvik.interp_mbc_per_s", func() (float64, error) { return probeDalvik(false) }},
		{"dalvik.jit_mbc_per_s", func() (float64, error) { return probeDalvik(true) }},
		{"cpu.handoff_ns", probeHandoff},
		{"kernel.spawn_exit_us", probeSpawnExit},
		{"kernel.kill_us", probeKill},
		{"mem.map_ns", probeMap},
		{"mem.clone_us", probeClone},
		{"binder.call_us", probeBinder},
		{"android.looper_ns", probeLooper},
	} {
		if vals[p.name], err = l.probe(p.name, p.fn); err != nil {
			return nil, 0, nil, err
		}
	}
	return vals, attempted, bad, nil
}

// probe runs fn under a span named for its metric.
func (l *ledger) probe(metric string, fn func() (float64, error)) (float64, error) {
	s := l.rec.begin("probe", metric, 0)
	v, err := fn()
	l.rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", metric, err)
	}
	return v, nil
}

// fleetRun runs the fleet coordinator on the pass's own job with
// subprocess workers, traced, and checks its fingerprint against the
// -workers 0 reference. It returns the coordinator's wall in ms.
func (l *ledger) fleetRun(w *fleetChaos, ref *outcome) (float64, error) {
	dir := filepath.Join(l.dir, "fleet-run")
	if err := freshDir(dir); err != nil {
		return 0, err
	}
	journal := filepath.Join(dir, "fleet.ckpt")
	from := len(l.rec.spans)
	s := l.rec.begin("fleet.Run", "", 0)
	rep, err := fleet.Run(ref.spec, fleet.Options{
		Workers:    w.workers,
		Command:    func() (*exec.Cmd, error) { return exec.Command(l.agave, "fleet", "-worker"), nil },
		Checkpoint: journal,
	})
	l.rec.end(s)
	wall := float64(l.rec.spans[from].dur()) / 1e6
	if err != nil {
		return wall, fmt.Errorf("fleet.Run: %w", err)
	}
	if rep.Fingerprint != ref.fingerprint {
		return wall, fmt.Errorf("fleet.Run fingerprint %s, want %s (the -workers 0 reference)", rep.Fingerprint, ref.fingerprint)
	}
	return wall, nil
}
