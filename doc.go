// Package agave is a full-system reproduction of "Agave: A Benchmark Suite
// for Exploring the Complexities of the Android Software Stack" (Brown et
// al., ISPASS 2016).
//
// The paper's measurement platform (Android 2.3.7 + Linux 2.6.35 inside a
// modified gem5) is rebuilt here as a deterministic behavioural simulator:
// every instruction fetch and data reference issued by the simulated stack
// is attributed to a (process, thread, VMA region) triple, and the paper's
// four figures and Table I are folds over the resulting counters.
//
// Entry points: the public API lives in internal/core (suite registry and
// runner) and internal/report (figure/table generation); the cmd/agave CLI
// and examples/ show typical use. See docs/ARCHITECTURE.md for the system
// inventory and layer map.
//
// Suite sweeps — the cross product of benchmarks × seeds × ablations — run
// on the one dispatch pool in internal/suite: runs are spread across a
// bounded worker pool (each run boots its own simulated machine), land in
// deterministic plan order, and fold into mean/min/max summaries across
// seeds. Results are bit-identical to a serial run of the same plan;
// `agave suite -parallel N` and core.RunPlan expose the pool, and
// core.RunSuite runs through it with one worker. The fleet executor in
// internal/fleet dispatches its shards through the same pool.
package agave
