package dalvik

import (
	"testing"

	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// harness spins up a kernel + process + VM and runs body on the process's
// main thread, then drives the machine until idle.
func harness(t *testing.T, services bool, body func(ex *kernel.Exec, vm *VM, d *LoadedDex)) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
	t.Cleanup(k.Shutdown)
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
	vm := Attach(p, lm, services)
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		d := vm.LoadDex(ex, StockDex("benchmark"))
		body(ex, vm, d)
	})
	k.Run(500 * sim.Millisecond)
	return k
}

func TestInterpreterArithmetic(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		if got := vm.Exec(ex, d, "sumLoop", 100); got != 4950 {
			t.Errorf("sumLoop(100) = %d, want 4950", got)
		}
		if got := vm.Exec(ex, d, "callHeavy", 10); got != 7*45+3*10 {
			t.Errorf("callHeavy(10) = %d, want %d", got, 7*45+3*10)
		}
	})
}

func TestInterpreterArraysAndObjects(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ref := vm.Exec(ex, d, "fillArray", 50)
		if got := vm.Exec(ex, d, "scanArray", ref); got != 3*(49*50/2) {
			t.Errorf("scanArray = %d, want %d", got, 3*(49*50/2))
		}
		chain := vm.Exec(ex, d, "objectChurn", 20)
		if got := vm.Exec(ex, d, "chainWalk", chain); got != 19*20/2 {
			t.Errorf("chainWalk = %d, want %d", got, 19*20/2)
		}
	})
}

func TestInterpreterBlend(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		a := vm.Exec(ex, d, "fillArray", 32)
		b := vm.Exec(ex, d, "fillArray", 32)
		want := int64(0)
		for i := int64(0); i < 32; i++ {
			want += (3 * i * 3 * i) >> 8
		}
		if got := vm.Exec(ex, d, "blend", a, b); got != want {
			t.Errorf("blend = %d, want %d", got, want)
		}
	})
}

func TestInterpreterAttribution(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.Exec(ex, d, "sumLoop", 5000)
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libdvm.so"] == 0 {
		t.Fatal("no interpreter fetches attributed to libdvm.so")
	}
	dread := k.Stats.ByRegion(stats.DataRead)
	if dread["benchmark@classes.dex"] == 0 {
		t.Fatal("no bytecode reads attributed to the dex mapping")
	}
	if dread[mem.RegionStack] == 0 {
		t.Fatal("no register-file reads attributed to the stack")
	}
}

func TestHeapTrafficAttribution(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ref := vm.Exec(ex, d, "fillArray", 2000)
		vm.Exec(ex, d, "scanArray", ref)
	})
	heap := k.Stats.ByRegion(stats.DataKinds...)[mem.RegionDalvikHeap]
	if heap < 4000 {
		t.Fatalf("dalvik-heap refs = %d, want >= 4000", heap)
	}
}

func TestJITCompilesHotMethod(t *testing.T) {
	var compiles uint64
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		// Invoke enough times to cross the hot threshold, then yield so
		// the Compiler thread runs, then call again for JIT execution.
		for i := 0; i < hotThreshold+2; i++ {
			vm.Exec(ex, d, "sumLoop", 3)
		}
		ex.SleepFor(5 * sim.Millisecond)
		vm.Exec(ex, d, "sumLoop", 3)
		compiles = vm.compilesDone
	})
	if compiles == 0 {
		t.Fatal("hot method never compiled")
	}
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache]; got == 0 {
		t.Fatal("no fetches from dalvik-jit-code-cache after compilation")
	}
	if got := k.Stats.ByRegion(stats.DataWrite)[mem.RegionJITCache]; got == 0 {
		t.Fatal("compiler emitted no code into the cache")
	}
	if got := k.Stats.ByThread()["Compiler"]; got == 0 {
		t.Fatal("Compiler thread earned no references")
	}
}

func TestJITDisabled(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.JITEnabled = false
		for i := 0; i < hotThreshold*3; i++ {
			vm.Exec(ex, d, "sumLoop", 3)
		}
		ex.SleepFor(5 * sim.Millisecond)
		if vm.compilesDone != 0 {
			t.Error("compiles happened with JIT disabled")
		}
	})
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionJITCache]; got != 0 {
		t.Fatalf("JIT cache fetched %d with JIT off", got)
	}
}

func TestGCRunsUnderAllocationPressure(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		// Churn enough to cross the GC threshold several times
		// (each churn of 1000 allocates ~24 KB).
		for i := 0; i < 200; i++ {
			vm.Exec(ex, d, "objectChurn", 1000)
		}
		ex.SleepFor(10 * sim.Millisecond)
	})
	if got := k.Stats.ByThread()["GC"]; got == 0 {
		t.Fatal("GC thread earned no references")
	}
}

func TestInterpBulkAttribution(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.InterpBulk(ex, d, 200_000, false)
		ex.SleepFor(5 * sim.Millisecond)
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libdvm.so"] < 200_000 {
		t.Fatalf("libdvm.so fetches = %d, want >= bytecode count", ifetch["libdvm.so"])
	}
	if ifetch[mem.RegionJITCache] == 0 {
		t.Fatal("warmed bulk interpretation fetched nothing from the JIT cache")
	}
	if k.Stats.ByRegion(stats.DataRead)["benchmark@classes.dex"] == 0 {
		t.Fatal("bulk interpretation read no bytecode")
	}
}

func TestLoadDexChargesLinearAlloc(t *testing.T) {
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {})
	if got := k.Stats.ByRegion(stats.DataWrite)[mem.RegionLinearAlloc]; got == 0 {
		t.Fatal("class loading wrote nothing to dalvik-LinearAlloc")
	}
}

func TestLoadDexIdempotent(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		d2 := vm.LoadDex(ex, StockDex("benchmark"))
		if d2 != d {
			t.Error("LoadDex of same name created a second image")
		}
	})
}

func TestVMServiceThreadsExist(t *testing.T) {
	var p *kernel.Process
	harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) { p = ex.P })
	groups := map[string]bool{}
	for _, th := range p.Threads {
		groups[th.Group] = true
	}
	for _, want := range []string{"GC", "Compiler", "HeapWorker", "Signal Catcher", "JDWP"} {
		if !groups[want] {
			t.Errorf("VM service thread %q missing", want)
		}
	}
}

func TestHeapWrapModelsFullGC(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		// Allocate more than the whole heap in chunks.
		for i := 0; i < 30; i++ {
			vm.AllocArray(ex, (HeapSize/4)/30*8)
		}
		if vm.heapTop > HeapSize {
			t.Error("heap top ran past the arena")
		}
	})
}

func TestStockDexVerifies(t *testing.T) {
	f := StockDex("x")
	if len(f.Methods) < 7 {
		t.Fatalf("stock dex has %d methods", len(f.Methods))
	}
}

func TestDeterministicInterpRun(t *testing.T) {
	run := func() uint64 {
		k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
		defer k.Shutdown()
		p := k.NewProcess("benchmark", 1<<20, 1<<20)
		lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
		vm := Attach(p, lm, true)
		k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
			ex.PushCode(p.Layout.Text)
			d := vm.LoadDex(ex, StockDex("benchmark"))
			for i := 0; i < 30; i++ {
				vm.Exec(ex, d, "sumLoop", 200)
				vm.Exec(ex, d, "objectChurn", 50)
			}
		})
		k.Run(200 * sim.Millisecond)
		return k.Stats.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("interpreter runs diverged: %d vs %d", a, b)
	}
}
