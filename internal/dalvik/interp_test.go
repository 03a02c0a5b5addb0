package dalvik

import (
	"strings"
	"testing"

	"agave/internal/dex"
	"agave/internal/kernel"
	"agave/internal/mem"
	"agave/internal/stats"
)

// These tests pin the interpreter edge cases under both cost models:
// div/rem-by-zero semantics, invoke argument-window snapshot semantics, the
// recursion-depth guard, mid-execution promotion to the JIT code cache, and
// the compiled model's elided dex reads.

const divRemSource = `
.method divZero 2
    div v2, v0, v1
    return v2
.end
.method remZero 2
    rem v2, v0, v1
    return v2
.end
`

// TestDivRemByZeroYieldsZero locks the documented divergence from real
// Dalvik (see internal/dex/isa.go): a zero divisor yields 0 instead of
// throwing ArithmeticException — in interpreted and compiled methods alike.
func TestDivRemByZeroYieldsZero(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		f, err := Assemble("divrem", divRemSource)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		dd := vm.LoadDex(ex, f)
		if got := vm.Exec(ex, dd, "divZero", 17, 0); got != 0 {
			t.Errorf("interp 17/0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 0); got != 0 {
			t.Errorf("interp 17%%0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "divZero", 17, 5); got != 3 {
			t.Errorf("interp 17/5 = %d, want 3", got)
		}
		vm.ForceCompile(dd, "divZero")
		vm.ForceCompile(dd, "remZero")
		if got := vm.Exec(ex, dd, "divZero", 17, 0); got != 0 {
			t.Errorf("compiled 17/0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 0); got != 0 {
			t.Errorf("compiled 17%%0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 5); got != 2 {
			t.Errorf("compiled 17%%5 = %d, want 2", got)
		}
	})
}

const snapshotSource = `
; caller keeps live values in the registers it passes as the arg window;
; the callee clobbers its own v0/v1 — the caller's v2/v3 must survive.
.method snapshotCaller 0
    const v2, 41
    const v3, 7
    invoke clobber, v2, v3
    move_result v4
    const v5, 10000
    mul v6, v2, v5
    const v5, 100
    mul v7, v3, v5
    add v6, v6, v7
    add v6, v6, v4
    return v6
.end
.method clobber 2
    add v2, v0, v1
    const v0, 999
    const v1, 888
    return v2
.end
`

// TestInvokeArgWindowSnapshot pins the copy-in semantics of OpInvoke: the
// callee frame snapshots the caller's regs[C:C+A] window at call time, so
// callee writes to its own registers never alias back into the caller.
func TestInvokeArgWindowSnapshot(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			f, err := Assemble("snapshot", snapshotSource)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			dd := vm.LoadDex(ex, f)
			if compiled {
				vm.ForceCompile(dd, "snapshotCaller")
				vm.ForceCompile(dd, "clobber")
			}
			want := int64(41*10000 + 7*100 + 48)
			if got := vm.Exec(ex, dd, "snapshotCaller"); got != want {
				t.Errorf("compiled=%v: snapshotCaller = %d, want %d (callee clobbered the caller's window?)",
					compiled, got, want)
			}
		})
	}
}

const spinSource = `
.method spin 0
    invoke spin
    return_void
.end
`

// TestRecursionDepthPanics pins the depth-64 frame guard: unbounded
// self-recursion must panic with the interpreter's message rather than
// overflow the host stack.
func TestRecursionDepthPanics(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			f, err := Assemble("spin", spinSource)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			dd := vm.LoadDex(ex, f)
			if compiled {
				vm.ForceCompile(dd, "spin")
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("compiled=%v: unbounded recursion did not panic", compiled)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "recursion too deep") {
					panic(r) // not ours — re-raise
				}
			}()
			vm.Exec(ex, dd, "spin")
		})
	}
}

// TestMidExecutionJITSwitchover pins the trace-JIT promotion race: a single
// long Exec crosses the hot threshold via loop backedges, the Compiler thread
// runs while the interpreter is parked between accounting quanta, and the
// remainder of that same invocation executes from dalvik-jit-code-cache — so
// one call charges both libdvm.so and the JIT cache. The counts are exact:
// they move if the switch happens at a different bytecode. (libdvm.so and
// the dex image also carry the Compiler thread's work.)
func TestMidExecutionJITSwitchover(t *testing.T) {
	var got int64
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		got = vm.Exec(ex, d, "sumLoop", 40_000)
	})
	const n = 40_000
	if want := int64(n) * (n - 1) / 2; got != want {
		t.Fatalf("sumLoop(%d) = %d, want %d", n, got, want)
	}
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if got, want := ifetch["libdvm.so"], uint64(18_029_524); got != want {
		t.Errorf("libdvm.so fetches = %d, want %d", got, want)
	}
	if got, want := ifetch[mem.RegionJITCache], uint64(590_864); got != want {
		t.Errorf("JIT-cache fetches = %d, want %d", got, want)
	}
	if got, want := k.Stats.ByRegion(stats.DataRead)["benchmark@classes.dex"], uint64(526_872); got != want {
		t.Errorf("dex reads = %d, want %d", got, want)
	}
}

// TestCompiledElidesDexReads pins the attribution contract of compiled
// execution for every stock method, covering heap ops and invokes made from
// compiled frames: a ForceCompile'd method returns what the interpreted one
// does, fetches from dalvik-jit-code-cache at jitCost per bytecode, and
// never reads the dex image. The interpreted run reads the image once per
// bytecode, which gives the dynamic bytecode count.
func TestCompiledElidesDexReads(t *testing.T) {
	type stockCall struct {
		method string
		setup  func(ex *kernel.Exec, vm *VM, d *LoadedDex) []int64 // returns the method's args
	}
	cases := []stockCall{
		{"sumLoop", func(*kernel.Exec, *VM, *LoadedDex) []int64 { return []int64{500} }},
		{"fillArray", func(*kernel.Exec, *VM, *LoadedDex) []int64 { return []int64{200} }},
		{"scanArray", func(ex *kernel.Exec, vm *VM, d *LoadedDex) []int64 {
			return []int64{vm.Exec(ex, d, "fillArray", 200)}
		}},
		{"objectChurn", func(*kernel.Exec, *VM, *LoadedDex) []int64 { return []int64{100} }},
		{"chainWalk", func(ex *kernel.Exec, vm *VM, d *LoadedDex) []int64 {
			return []int64{vm.Exec(ex, d, "objectChurn", 100)}
		}},
		{"callHeavy", func(*kernel.Exec, *VM, *LoadedDex) []int64 { return []int64{100} }},
		{"blend", func(ex *kernel.Exec, vm *VM, d *LoadedDex) []int64 {
			return []int64{vm.Exec(ex, d, "fillArray", 64), vm.Exec(ex, d, "fillArray", 64)}
		}},
	}
	// run executes tc's setup and then, unless mode is "setup", the method
	// itself — interpreted, or with every method force-compiled — and
	// returns the method's result with the run's JIT-cache fetches and dex
	// reads. Setup is interpreted in every mode, so its charges cancel.
	run := func(t *testing.T, tc stockCall, mode string) (ret int64, jitFetch, dexReads uint64) {
		k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			args := tc.setup(ex, vm, d)
			switch mode {
			case "setup":
				return
			case "compiled":
				for _, m := range d.File.Methods {
					vm.ForceCompile(d, m.Name)
				}
			}
			ret = vm.Exec(ex, d, tc.method, args...)
		})
		return ret, k.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache],
			k.Stats.ByRegion(stats.DataRead)["benchmark@classes.dex"]
	}
	for _, tc := range cases {
		t.Run(tc.method, func(t *testing.T) {
			_, _, baseReads := run(t, tc, "setup")
			want, _, interpReads := run(t, tc, "interp")
			got, jitFetch, jitReads := run(t, tc, "compiled")
			if got != want {
				t.Errorf("compiled %s = %d, interpreted = %d", tc.method, got, want)
			}
			bytecodes := interpReads - baseReads
			if bytecodes == 0 {
				t.Fatalf("interpreted %s read no bytecode from the dex image", tc.method)
			}
			if jitReads != baseReads {
				t.Errorf("compiled %s added %d dex reads, want 0", tc.method, jitReads-baseReads)
			}
			if jitFetch != bytecodes*jitCost {
				t.Errorf("JIT-cache fetches = %d, want %d (jitCost per bytecode for %d bytecodes)",
					jitFetch, bytecodes*jitCost, bytecodes)
			}
		})
	}
}

// TestInterpBulkZeroMethodDex guards the trace-discovery path against a
// method-less image: dex.Verify now rejects those, but a hand-built File
// must still not divide InterpBulk by zero.
func TestInterpBulkZeroMethodDex(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ed := vm.LoadDex(ex, dex.NewFile("empty"))
		vm.InterpBulk(ex, ed, 60_000, false) // crosses traceEvery twice
	})
	if got := k.Stats.ByRegion(stats.IFetch)["libdvm.so"]; got < 60_000 {
		t.Fatalf("libdvm.so fetches = %d, want >= bulk bytecode count", got)
	}
}
