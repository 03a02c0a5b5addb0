package suite

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPlanSpecsOrderAndDefaults(t *testing.T) {
	p := Plan{
		Benchmarks: []string{"a", "b"},
		Seeds:      []uint64{1, 2},
		Ablations:  []Ablation{Baseline, {Name: "nojit", DisableJIT: true}},
	}
	specs := p.Specs()
	if len(specs) != p.Size() || len(specs) != 8 {
		t.Fatalf("plan expanded to %d specs, want 8", len(specs))
	}
	// Benchmark-major, then seed, then ablation; indexes sequential.
	want := []string{
		"a/seed=1/base", "a/seed=1/nojit", "a/seed=2/base", "a/seed=2/nojit",
		"b/seed=1/base", "b/seed=1/nojit", "b/seed=2/base", "b/seed=2/nojit",
	}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has index %d", i, s.Index)
		}
		if s.String() != want[i] {
			t.Fatalf("spec %d = %s, want %s", i, s, want[i])
		}
	}

	// Empty seed and ablation axes collapse to singletons.
	defaults := Plan{Benchmarks: []string{"x"}}.Specs()
	if len(defaults) != 1 || defaults[0].Seed != 1 || defaults[0].Ablation.Label() != "base" {
		t.Fatalf("default expansion wrong: %+v", defaults)
	}
}

// The Engine tests pin the suite executor's dispatch pool, Each.

func TestEngineOutputsInPlanOrder(t *testing.T) {
	// Workers that finish in reverse order must not misplace results.
	specs := Plan{Benchmarks: []string{"b0", "b1", "b2", "b3", "b4", "b5"}}.Specs()
	results := make([]string, len(specs))
	var calls atomic.Int32
	err := Each(len(specs), len(specs), func(i int) error {
		calls.Add(1)
		time.Sleep(time.Duration(len(specs)-i) * 2 * time.Millisecond)
		results[i] = "r:" + specs[i].Benchmark
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int32(len(specs)) {
		t.Fatalf("fn called %d times, want %d", got, len(specs))
	}
	for i, r := range results {
		if r != "r:"+specs[i].Benchmark {
			t.Fatalf("result %d = %q, out of plan order", i, r)
		}
	}
}

func TestEngineBoundsWorkers(t *testing.T) {
	const bound = 3
	var inFlight, peak atomic.Int32
	err := Each(20, bound, func(int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, bound)
	}
}

func TestEngineFirstErrorInPlanOrder(t *testing.T) {
	errs := map[int]error{1: errors.New("bad1"), 3: errors.New("bad3")}
	for _, workers := range []int{1, 4} {
		err := Each(5, workers, func(i int) error {
			if i == 1 {
				// Fail after index 3 has had time to fail first: the
				// smallest index, not the earliest failure, must win.
				time.Sleep(5 * time.Millisecond)
			}
			return errs[i]
		})
		if err != errs[1] {
			t.Fatalf("workers=%d: error %v, want the error of index 1", workers, err)
		}
	}
}

func TestEngineSerialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int32
	err := Each(4, 1, func(i int) error {
		ran.Add(1)
		if i == 1 {
			return errors.New("stop here")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("serial pool ran %d indices after failure, want exactly 2 (historical RunSuite behavior)", got)
	}
}

func TestEngineEmptyPlan(t *testing.T) {
	var calls atomic.Int32
	for _, workers := range []int{0, 1, 4} {
		err := Each(0, workers, func(int) error {
			calls.Add(1)
			return nil
		})
		if err != nil || calls.Load() != 0 {
			t.Fatalf("workers=%d: empty range returned %v after %d calls", workers, err, calls.Load())
		}
	}
}

func TestShardGeometry(t *testing.T) {
	if got := NumShards(0, 8); got != 0 {
		t.Fatalf("NumShards(0,8) = %d, want 0", got)
	}
	if got := NumShards(17, 8); got != 3 {
		t.Fatalf("NumShards(17,8) = %d, want 3", got)
	}
	if got := NumShards(16, 8); got != 2 {
		t.Fatalf("NumShards(16,8) = %d, want 2", got)
	}
	// Shards tile the plan exactly: consecutive, non-overlapping, covering.
	total, size := 17, 8
	next := 0
	for s := 0; s < NumShards(total, size); s++ {
		lo, hi := ShardRange(total, size, s)
		if lo != next || hi <= lo {
			t.Fatalf("shard %d = [%d,%d), want lo %d", s, lo, hi, next)
		}
		if hi-lo > size {
			t.Fatalf("shard %d covers %d specs, max %d", s, hi-lo, size)
		}
		next = hi
	}
	if next != total {
		t.Fatalf("shards cover %d specs, want %d", next, total)
	}
	for _, bad := range []int{-1, NumShards(total, size)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ShardRange(%d,%d,%d) did not panic", total, size, bad)
				}
			}()
			ShardRange(total, size, bad)
		}()
	}
}
