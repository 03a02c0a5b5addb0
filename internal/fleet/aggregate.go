package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"agave/internal/stats"
	"agave/internal/suite"
)

// Digest is a multiset hash over result lines: the four 64-bit big-endian
// limbs of each line's SHA-256, summed limb-wise mod 2^64. Addition
// commutes, so the digest is independent of arrival order and of shard
// geometry — the fingerprint of a fleet run is bit-identical to the serial
// run's no matter how the lines were grouped or interleaved — while staying
// O(1) memory. It is still a faithful commitment to the ordered result
// stream because every line embeds its plan index: equal digests mean equal
// line multisets, and the indices order the multiset uniquely.
type Digest [4]uint64

// AddLine folds one canonical wire line (without its newline) into the digest.
func (d *Digest) AddLine(line []byte) {
	sum := sha256.Sum256(line)
	for i := range d {
		d[i] += binary.BigEndian.Uint64(sum[i*8:])
	}
}

// Merge folds another digest into d (multiset union).
func (d *Digest) Merge(other Digest) {
	for i := range d {
		d[i] += other[i]
	}
}

// Hex renders the digest as 64 hex digits, big-endian limb order.
func (d Digest) Hex() string {
	var buf [32]byte
	for i, limb := range d {
		binary.BigEndian.PutUint64(buf[i*8:], limb)
	}
	return hex.EncodeToString(buf[:])
}

// ParseDigest parses the Hex form back into a digest.
func ParseDigest(s string) (Digest, error) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 32 {
		return Digest{}, fmt.Errorf("fleet: bad digest %q", s)
	}
	var d Digest
	for i := range d {
		d[i] = binary.BigEndian.Uint64(raw[i*8:])
	}
	return d, nil
}

// MetricAgg is one named metric aggregate in a cell. The wire form is flat
// — {"name","n","sum","min","max"} — so the checkpoint and report formats
// don't leak the stats package's field names.
type MetricAgg struct {
	Name string
	Agg  stats.Agg
}

type metricAggWire struct {
	Name string  `json:"name"`
	N    int     `json:"n"`
	Sum  float64 `json:"sum"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON renders the flat wire shape.
func (m MetricAgg) MarshalJSON() ([]byte, error) {
	return json.Marshal(metricAggWire{m.Name, m.Agg.N, m.Agg.Sum, m.Agg.MinV, m.Agg.MaxV})
}

// UnmarshalJSON parses the flat wire shape.
func (m *MetricAgg) UnmarshalJSON(data []byte) error {
	var w metricAggWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*m = MetricAgg{w.Name, stats.Agg{N: w.N, Sum: w.Sum, MinV: w.Min, MaxV: w.Max}}
	return nil
}

// Cell is one (unit, ablation) summary: running aggregates over every seed
// that ran it, metrics in name order.
type Cell struct {
	Unit     string      `json:"unit"`
	Ablation string      `json:"ablation"`
	Runs     int         `json:"runs"`
	Metrics  []MetricAgg `json:"metrics"`
}

// Observe folds one run's name-sorted metrics into the cell. It is the one
// per-run metric fold: fleet shards and suite summaries both go through it.
func (c *Cell) Observe(metrics []Metric) {
	c.Runs++
	for _, m := range metrics {
		i := sort.Search(len(c.Metrics), func(i int) bool { return c.Metrics[i].Name >= m.Name })
		if i < len(c.Metrics) && c.Metrics[i].Name == m.Name {
			c.Metrics[i].Agg.Observe(m.Value)
			continue
		}
		c.Metrics = append(c.Metrics, MetricAgg{})
		copy(c.Metrics[i+1:], c.Metrics[i:])
		c.Metrics[i] = MetricAgg{Name: m.Name}
		c.Metrics[i].Agg.Observe(m.Value)
	}
}

// Metric reports the cell's aggregate of the named metric, if any run
// carried it.
func (c *Cell) Metric(name string) (stats.Agg, bool) {
	i := sort.Search(len(c.Metrics), func(i int) bool { return c.Metrics[i].Name >= name })
	if i < len(c.Metrics) && c.Metrics[i].Name == name {
		return c.Metrics[i].Agg, true
	}
	return stats.Agg{}, false
}

func (c *Cell) merge(other *Cell) {
	c.Runs += other.Runs
	for _, m := range other.Metrics {
		i := sort.Search(len(c.Metrics), func(i int) bool { return c.Metrics[i].Name >= m.Name })
		if i < len(c.Metrics) && c.Metrics[i].Name == m.Name {
			c.Metrics[i].Agg.Merge(m.Agg)
			continue
		}
		c.Metrics = append(c.Metrics, MetricAgg{})
		copy(c.Metrics[i+1:], c.Metrics[i:])
		c.Metrics[i] = m
	}
}

// ShardResult is a completed shard's partial state: its line count, digest,
// and per-cell aggregates. It is what workers summarize, what the
// checkpoint journals, and what the ordered merge consumes — never the
// lines themselves.
type ShardResult struct {
	Shard  int     `json:"shard"`
	Lines  int     `json:"lines"`
	Digest string  `json:"digest"`
	Cells  []*Cell `json:"cells"`
}

// Report is the fleet run's final summary. It deliberately carries nothing
// execution-dependent — no worker count, no resumed-shard tally, no wall
// time — so the JSON of a cold 8-worker fleet, a resumed fleet, and a
// serial run are byte-identical.
type Report struct {
	PlanHash    string  `json:"plan_hash"`
	Runs        int     `json:"runs"`
	Shards      int     `json:"shards"`
	ShardSize   int     `json:"shard_size"`
	Fingerprint string  `json:"fingerprint"`
	Cells       []*Cell `json:"cells"`
}

type cellKey struct {
	unit     string
	ablation string
}

// shardFold is the in-flight state of one shard: lines fold into per-cell
// partials local to the shard so the global merge can stay shard-ordered.
type shardFold struct {
	lines   int
	digest  Digest
	cells   []*Cell
	cellIdx map[cellKey]int
}

func (f *shardFold) cell(unit, ablation string) *Cell {
	if i, ok := f.cellIdx[cellKey{unit, ablation}]; ok {
		return f.cells[i]
	}
	c := &Cell{Unit: unit, Ablation: ablation}
	f.cellIdx[cellKey{unit, ablation}] = len(f.cells)
	f.cells = append(f.cells, c)
	return c
}

func (f *shardFold) result(shard int) *ShardResult {
	return &ShardResult{Shard: shard, Lines: f.lines, Digest: f.digest.Hex(), Cells: f.cells}
}

// Aggregator folds a fleet's result stream into the final report with
// memory proportional to shards in flight, never to total lines. Observe
// accepts lines from any shard in any interleaving; FinishShard seals a
// shard's partial. The fingerprint digest updates on every line
// (order-free); the float cell aggregates merge only when the next shard in
// id order is sealed, so their fold tree matches the serial run exactly.
type Aggregator struct {
	total     int
	shardSize int
	shards    int
	planHash  string

	open    map[int]*shardFold
	pending map[int]*ShardResult
	next    int

	digest  Digest
	cells   []*Cell
	cellIdx map[cellKey]int
	runs    int
	done    int
}

// NewAggregator builds an aggregator for a plan of total specs, sharded at
// shardSize, under the given spec hash.
func NewAggregator(total, shardSize int, planHash string) *Aggregator {
	return &Aggregator{
		total:     total,
		shardSize: shardSize,
		shards:    suite.NumShards(total, shardSize),
		planHash:  planHash,
		open:      make(map[int]*shardFold),
		pending:   make(map[int]*ShardResult),
		cellIdx:   make(map[cellKey]int),
	}
}

// Observe folds one result line into the given shard. raw is the line's
// canonical wire bytes (no newline); line is its parsed form — the caller
// decodes once and lends both, so a warmed aggregator observes without
// allocating. Lines must arrive in plan order within their shard.
func (a *Aggregator) Observe(shard int, raw []byte, line *Line) error {
	if shard < 0 || shard >= a.shards {
		return fmt.Errorf("fleet: shard %d out of range (plan has %d shards)", shard, a.shards)
	}
	f, ok := a.open[shard]
	if !ok {
		if a.Restored(shard) {
			return fmt.Errorf("fleet: shard %d already finished", shard)
		}
		f = &shardFold{cellIdx: make(map[cellKey]int)}
		a.open[shard] = f
	}
	lo, hi := suite.ShardRange(a.total, a.shardSize, shard)
	want := lo + f.lines
	if line.Index != want {
		return fmt.Errorf("fleet: shard %d: line index %d out of order (want %d)", shard, line.Index, want)
	}
	if line.Index >= hi {
		return fmt.Errorf("fleet: shard %d: line index %d beyond shard range [%d,%d)", shard, line.Index, lo, hi)
	}
	f.lines++
	f.digest.AddLine(raw)
	f.cell(line.Unit, line.Ablation).Observe(line.Metrics)
	return nil
}

// FinishShard seals a shard: verifies the worker's trailer against the
// folded partial (wantLines < 0 or an empty wantDigest skip the respective
// check — the serial executor has no trailer), then merges every pending
// shard that is next in id order into the report state.
func (a *Aggregator) FinishShard(shard, wantLines int, wantDigest string) (*ShardResult, error) {
	f, ok := a.open[shard]
	if !ok {
		return nil, fmt.Errorf("fleet: shard %d finished without lines in flight", shard)
	}
	lo, hi := suite.ShardRange(a.total, a.shardSize, shard)
	if f.lines != hi-lo {
		return nil, fmt.Errorf("fleet: shard %d: got %d lines, want %d", shard, f.lines, hi-lo)
	}
	if wantLines >= 0 && wantLines != f.lines {
		return nil, fmt.Errorf("fleet: shard %d: trailer claims %d lines, counted %d", shard, wantLines, f.lines)
	}
	if wantDigest != "" && wantDigest != f.digest.Hex() {
		return nil, fmt.Errorf("fleet: shard %d: trailer digest %s != folded digest %s", shard, wantDigest, f.digest.Hex())
	}
	delete(a.open, shard)
	p := f.result(shard)
	if err := a.admit(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Restore admits a shard partial recovered from a checkpoint, bypassing the
// line fold but joining the same ordered merge.
func (a *Aggregator) Restore(p *ShardResult) error {
	if p.Shard < 0 || p.Shard >= a.shards {
		return fmt.Errorf("fleet: restored shard %d out of range (plan has %d shards)", p.Shard, a.shards)
	}
	lo, hi := suite.ShardRange(a.total, a.shardSize, p.Shard)
	if p.Lines != hi-lo {
		return fmt.Errorf("fleet: restored shard %d has %d lines, want %d", p.Shard, p.Lines, hi-lo)
	}
	if _, err := ParseDigest(p.Digest); err != nil {
		return fmt.Errorf("fleet: restored shard %d: %w", p.Shard, err)
	}
	return a.admit(p)
}

// Restored reports whether the shard has already been merged or is pending
// merge — i.e. needs no re-execution.
func (a *Aggregator) Restored(shard int) bool {
	if shard < a.next {
		return true
	}
	_, ok := a.pending[shard]
	return ok
}

// admit queues a sealed shard partial and drains the pending set in shard-id
// order, merging each next shard's digest and cells into the report state.
// The strict order makes the float fold tree — hence every rounding step —
// identical to a serial sweep's.
func (a *Aggregator) admit(p *ShardResult) error {
	if p.Shard < a.next {
		return fmt.Errorf("fleet: shard %d finished twice", p.Shard)
	}
	if _, dup := a.pending[p.Shard]; dup {
		return fmt.Errorf("fleet: shard %d finished twice", p.Shard)
	}
	a.pending[p.Shard] = p
	for {
		q, ok := a.pending[a.next]
		if !ok {
			return nil
		}
		delete(a.pending, a.next)
		d, err := ParseDigest(q.Digest)
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", q.Shard, err)
		}
		a.digest.Merge(d)
		for _, c := range q.Cells {
			k := cellKey{c.Unit, c.Ablation}
			if i, ok := a.cellIdx[k]; ok {
				a.cells[i].merge(c)
			} else {
				cp := &Cell{Unit: c.Unit, Ablation: c.Ablation}
				cp.merge(c)
				a.cellIdx[k] = len(a.cells)
				a.cells = append(a.cells, cp)
			}
		}
		a.runs += q.Lines
		a.done++
		a.next++
	}
}

// Done reports whether every shard has been merged.
func (a *Aggregator) Done() bool { return a.done == a.shards }

// Report seals the aggregation and returns the final report. Cells appear
// in first-merged order, which is plan order because shards merge in id
// order and specs within a shard fold in plan order.
func (a *Aggregator) Report() (*Report, error) {
	if !a.Done() {
		return nil, fmt.Errorf("fleet: report requested with %d of %d shards merged", a.done, a.shards)
	}
	return &Report{
		PlanHash:    a.planHash,
		Runs:        a.runs,
		Shards:      a.shards,
		ShardSize:   a.shardSize,
		Fingerprint: a.digest.Hex(),
		Cells:       a.cells,
	}, nil
}
