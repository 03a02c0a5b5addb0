package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"agave/internal/suite"
)

// Envelope is what a worker subprocess reads from stdin: the full job spec,
// the coordinator's hash of it, and the one shard to execute. The worker
// recomputes the hash and refuses a mismatch — a worker must never run
// specs the coordinator will attribute to a different plan.
type Envelope struct {
	PlanHash string `json:"plan_hash"`
	Shard    int    `json:"shard"`
	Spec     Spec   `json:"spec"`
}

// Trailer is the worker's final stdout line, after its result lines: it
// pins the shard's line count and digest so the coordinator detects a
// truncated or duplicated stream even when every individual line parsed.
type Trailer struct {
	Done   bool   `json:"done"`
	Shard  int    `json:"shard"`
	Lines  int    `json:"lines"`
	Digest string `json:"digest"`
}

// RunFunc executes one spec under the opaque engine config and returns its
// result line (Index, metrics, and fingerprint filled in; metrics sorted).
type RunFunc func(cfg json.RawMessage, spec suite.RunSpec) (Line, error)

// RunWorker is the worker-mode entry point: it decodes the shard envelope
// from stdin, executes the shard's specs through the shared shard loop, and
// streams one canonical JSON line per spec plus the trailer to stdout.
// Any error aborts the stream — the coordinator sees a non-zero exit and a
// missing trailer, never a silently short shard.
func RunWorker(stdin io.Reader, stdout io.Writer, run RunFunc) error {
	var env Envelope
	dec := json.NewDecoder(stdin)
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("fleet worker: decode envelope: %w", err)
	}
	hash, err := env.Spec.Hash()
	if err != nil {
		return err
	}
	if hash != env.PlanHash {
		return fmt.Errorf("fleet worker: envelope plan hash %s does not match spec hash %s", env.PlanHash, hash)
	}
	plan, err := env.Spec.Plan.SuitePlan()
	if err != nil {
		return err
	}
	specs := plan.Specs()
	total := len(specs)
	if env.Shard < 0 || env.Shard >= suite.NumShards(total, env.Spec.ShardSize) {
		return fmt.Errorf("fleet worker: shard %d out of range (plan has %d shards)", env.Shard, suite.NumShards(total, env.Spec.ShardSize))
	}
	lo, hi := suite.ShardRange(total, env.Spec.ShardSize, env.Shard)

	out := bufio.NewWriter(stdout)
	var digest Digest
	err = runShard(env.Spec.Config, env.Shard, specs[lo:hi], run, func(raw []byte, _ *Line) error {
		digest.AddLine(raw)
		if _, err := out.Write(append(raw, '\n')); err != nil {
			return fmt.Errorf("shard %d: write line: %w", env.Shard, err)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fleet worker: %w", err)
	}
	trailer, err := json.Marshal(Trailer{Done: true, Shard: env.Shard, Lines: hi - lo, Digest: digest.Hex()})
	if err != nil {
		return fmt.Errorf("fleet worker: shard %d: encode trailer: %w", env.Shard, err)
	}
	if _, err := out.Write(append(trailer, '\n')); err != nil {
		return fmt.Errorf("fleet worker: shard %d: write trailer: %w", env.Shard, err)
	}
	return out.Flush()
}

// runShard is the shard loop shared by worker subprocesses and in-process
// fleets: it runs one shard's specs serially in plan order, checks that
// each result line carries its spec's plan index, and hands the line's
// canonical wire bytes and parsed form to emit. Errors name the shard but
// not the executor; callers add their own prefix.
func runShard(cfg json.RawMessage, shard int, specs []suite.RunSpec, run RunFunc, emit func(raw []byte, line *Line) error) error {
	for _, spec := range specs {
		line, err := run(cfg, spec)
		if err != nil {
			return fmt.Errorf("shard %d: %s: %w", shard, spec, err)
		}
		if line.Index != spec.Index {
			return fmt.Errorf("shard %d: run returned index %d for spec %d", shard, line.Index, spec.Index)
		}
		raw, err := line.Encode()
		if err != nil {
			return fmt.Errorf("shard %d: encode line %d: %w", shard, spec.Index, err)
		}
		if err := emit(raw, &line); err != nil {
			return err
		}
	}
	return nil
}
