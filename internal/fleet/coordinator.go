package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"agave/internal/suite"
)

// Options configures a fleet run.
type Options struct {
	// Workers bounds how many shards run concurrently. It bounds
	// concurrency only — shard geometry, and therefore the report, never
	// depends on it. Values < 1 are treated as 1.
	Workers int
	// Command builds one worker subprocess invocation. The coordinator
	// sets its Stdin (the shard envelope), Stdout, and Stderr. When nil,
	// shards run in this process through Run instead.
	Command func() (*exec.Cmd, error)
	// Run executes one spec when Command is nil. It must be safe for
	// concurrent calls when Workers > 1.
	Run RunFunc
	// Checkpoint, when non-empty, is the journal path: completed shards
	// append to it, and an existing compatible journal is resumed.
	Checkpoint string
	// Progress, when non-nil, receives operator-facing progress lines.
	Progress io.Writer
}

// stderrLimit caps how much worker stderr the coordinator retains for error
// reports — enough to diagnose, bounded so a pathological worker can't
// balloon coordinator memory.
const stderrLimit = 64 << 10

// cappedBuffer retains the first stderrLimit bytes written to it.
type cappedBuffer struct {
	buf       bytes.Buffer
	truncated bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if room := stderrLimit - b.buf.Len(); room > 0 {
		if len(p) > room {
			b.buf.Write(p[:room])
			b.truncated = true
		} else {
			b.buf.Write(p)
		}
	} else if len(p) > 0 {
		b.truncated = true
	}
	return len(p), nil
}

func (b *cappedBuffer) String() string {
	s := b.buf.String()
	if b.truncated {
		s += "\n[stderr truncated]"
	}
	return s
}

// trailerPrefix distinguishes the worker trailer from result lines. The
// trailer is canonical json.Marshal output of Trailer, whose first field is
// Done — the prefix is part of the wire protocol, not a heuristic.
var trailerPrefix = []byte(`{"done":true`)

// Run executes the fleet: it shards the spec's plan and runs every shard
// not restored from the checkpoint on the suite dispatch pool, in shard
// order — each in a worker subprocess, or in this process when
// opts.Command is nil — folding result lines through the aggregator, and
// returns the final report. On any shard failure it stops dispatching, lets
// in-flight shards finish (their partials still checkpoint), and returns
// the error of the smallest failed shard id — the same shard a serial run
// would have failed at first.
func Run(spec *Spec, opts Options) (*Report, error) {
	if spec.ShardSize <= 0 {
		return nil, fmt.Errorf("fleet: shard size must be positive (got %d)", spec.ShardSize)
	}
	if opts.Command == nil && opts.Run == nil {
		return nil, fmt.Errorf("fleet: options need a worker Command or an in-process Run")
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	plan, err := spec.Plan.SuitePlan()
	if err != nil {
		return nil, err
	}
	total := plan.Size()
	agg := NewAggregator(total, spec.ShardSize, hash)

	cp, restored, err := prepareCheckpoint(opts.Checkpoint, hash, total, spec.ShardSize, agg)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		defer cp.Close()
	}
	if restored > 0 && opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "fleet: resumed %d of %d shards from %s\n", restored, agg.shards, opts.Checkpoint)
	}
	var todo []int
	for shard := 0; shard < agg.shards; shard++ {
		if !agg.Restored(shard) {
			todo = append(todo, shard)
		}
	}

	c := &coordinator{agg: agg, cp: cp, progress: opts.Progress,
		start: time.Now()} //agave:allow walltime coordinator progress reporting is operator-facing; nothing derived from it enters the report or the fingerprint
	var specs []suite.RunSpec
	if opts.Command == nil {
		specs = plan.Specs()
	}
	runOne := func(shard int) error {
		if opts.Command != nil {
			return c.runWorkerShard(spec, hash, shard, opts.Command)
		}
		lo, hi := suite.ShardRange(total, spec.ShardSize, shard)
		err := runShard(spec.Config, shard, specs[lo:hi], opts.Run, func(raw []byte, line *Line) error {
			return c.observe(shard, raw, line)
		})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		// An in-process shard has no trailer to check against.
		return c.seal(shard, -1, "")
	}
	err = suite.Each(len(todo), max(opts.Workers, 1), func(i int) error { return runOne(todo[i]) })
	if err != nil {
		return nil, err
	}
	return agg.Report()
}

// coordinator is the state every shard of a Run folds into; its methods
// are safe for concurrent shards.
type coordinator struct {
	mu       sync.Mutex // guards agg, cp, and progress
	agg      *Aggregator
	cp       *Checkpoint
	progress io.Writer
	start    time.Time
}

func (c *coordinator) observe(shard int, raw []byte, line *Line) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Observe(shard, raw, line)
}

// seal is the tail every shard shares, in-process or subprocess: verify
// and merge the shard's partial, journal it, report progress.
func (c *coordinator) seal(shard, wantLines int, wantDigest string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, err := c.agg.FinishShard(shard, wantLines, wantDigest)
	if err != nil {
		return err
	}
	if c.cp != nil {
		if err := c.cp.Append(p); err != nil {
			return err
		}
	}
	if c.progress != nil {
		elapsed := time.Since(c.start).Round(time.Millisecond) //agave:allow walltime same display-only measurement as the coordinator's start time
		fmt.Fprintf(c.progress, "fleet: %d/%d shards (%s)\n", c.agg.done+len(c.agg.pending), c.agg.shards, elapsed)
	}
	return nil
}

// runWorkerShard runs one shard in a worker subprocess: it writes the shard
// envelope to the worker's stdin, observes each streamed result line,
// verifies the trailer, and seals the shard against the trailer's line
// count and digest. Any failure kills the worker and reports the shard id
// plus the worker's (capped) stderr.
func (c *coordinator) runWorkerShard(spec *Spec, hash string, shard int, command func() (*exec.Cmd, error)) error {
	envData, err := json.Marshal(Envelope{PlanHash: hash, Shard: shard, Spec: *spec})
	if err != nil {
		return fmt.Errorf("fleet: shard %d: encode envelope: %w", shard, err)
	}
	cmd, err := command()
	if err != nil {
		return fmt.Errorf("fleet: shard %d: build worker command: %w", shard, err)
	}
	cmd.Stdin = bytes.NewReader(envData)
	var stderr cappedBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", shard, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("fleet: shard %d: start worker: %w", shard, err)
	}
	fail := func(format string, args ...any) error {
		cmd.Process.Kill()
		cmd.Wait()
		msg := fmt.Sprintf(format, args...)
		if s := stderr.String(); s != "" {
			msg += "\nworker stderr:\n" + s
		}
		return fmt.Errorf("fleet: shard %d: %s", shard, msg)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var line Line
	var trailer *Trailer
	for sc.Scan() {
		raw := sc.Bytes()
		if trailer != nil {
			return fail("trailing garbage after trailer: %.80q", raw)
		}
		if bytes.HasPrefix(raw, trailerPrefix) {
			t := new(Trailer)
			if err := json.Unmarshal(raw, t); err != nil {
				return fail("malformed trailer: %v", err)
			}
			if t.Shard != shard {
				return fail("trailer names shard %d", t.Shard)
			}
			trailer = t
			continue
		}
		if err := DecodeLine(raw, &line); err != nil {
			return fail("malformed result line: %v (line: %.80q)", err, raw)
		}
		if err := c.observe(shard, raw, &line); err != nil {
			return fail("%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return fail("read worker output: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		return fail("worker failed: %v", err)
	}
	if trailer == nil {
		return fail("worker exited without a trailer")
	}
	if err := c.seal(shard, trailer.Lines, trailer.Digest); err != nil {
		if s := stderr.String(); s != "" {
			return fmt.Errorf("%w\nworker stderr:\n%s", err, s)
		}
		return err
	}
	return nil
}

// prepareCheckpoint opens or creates the journal at path (empty path means
// no checkpointing) and restores any journaled shards into agg. It reports
// how many shards were restored.
func prepareCheckpoint(path, hash string, total, shardSize int, agg *Aggregator) (*Checkpoint, int, error) {
	if path == "" {
		return nil, 0, nil
	}
	want := Header{PlanHash: hash, Runs: total, Shards: agg.shards, ShardSize: shardSize}
	if _, err := os.Stat(path); err != nil {
		if !os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("checkpoint %s: %w", path, err)
		}
		cp, err := CreateCheckpoint(path, want)
		return cp, 0, err
	}
	partials, cp, err := OpenCheckpoint(path, want)
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Shard < partials[j].Shard })
	for _, p := range partials {
		if err := agg.Restore(p); err != nil {
			cp.Close()
			return nil, 0, err
		}
	}
	return cp, len(partials), nil
}
