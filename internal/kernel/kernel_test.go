package kernel

import (
	"testing"

	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

func newTestKernel() *Kernel {
	return New(Config{Quantum: 10 * sim.Microsecond, Seed: 42})
}

// findProcess returns the first process with the given name, or nil.
func findProcess(k *Kernel, name string) *Process {
	for _, p := range k.procs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func TestBootHasSwapperAndAta(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	if findProcess(k, "swapper") == nil {
		t.Fatal("no swapper")
	}
	if findProcess(k, "ata_sff/0") == nil {
		t.Fatal("no ata_sff/0")
	}
	if k.Swapper.PID != 0 {
		t.Fatalf("swapper pid = %d, want 0", k.Swapper.PID)
	}
}

func TestSpawnAndRunAttributesRefs(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(1000)
		ex.Read(p.Layout.Heap, 300)
		ex.Write(p.Layout.Heap, 200)
	})
	k.Run(1 * sim.Millisecond)

	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch[mem.RegionAppBinary] != 1000 {
		t.Fatalf("app binary ifetch = %d, want 1000", ifetch[mem.RegionAppBinary])
	}
	data := k.Stats.ByRegion(stats.DataKinds...)
	if data[mem.RegionHeap] != 500 {
		t.Fatalf("heap data = %d, want 500", data[mem.RegionHeap])
	}
	byProc := k.Stats.ByProcess(stats.IFetch)
	if byProc["benchmark"] != 1000 {
		t.Fatalf("benchmark ifetch = %d", byProc["benchmark"])
	}
}

func TestSchedulerRoundRobinFairness(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	done := [2]bool{}
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "worker", "worker", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			for j := 0; j < 100; j++ {
				ex.Fetch(1000)
			}
			done[i] = true
		})
	}
	k.Run(1 * sim.Millisecond)
	if !done[0] || !done[1] {
		t.Fatalf("round robin starved a thread: %v", done)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	var wokeAt sim.Ticks
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.SleepFor(5 * sim.Millisecond)
		wokeAt = ex.Now()
	})
	k.Run(20 * sim.Millisecond)
	if wokeAt < 5*sim.Millisecond {
		t.Fatalf("woke at %d, want >= 5ms", wokeAt)
	}
	if wokeAt > 6*sim.Millisecond {
		t.Fatalf("woke far too late: %d", wokeAt)
	}
}

func TestIdleChargesSwapper(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	k.Run(10 * sim.Millisecond) // nothing runnable: pure idle
	byProc := k.Stats.ByProcess(stats.IFetch)
	if byProc["swapper"] == 0 {
		t.Fatal("idle time did not charge swapper")
	}
	if k.Clock.Now() < 10*sim.Millisecond {
		t.Fatalf("clock did not reach deadline: %d", k.Clock.Now())
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test")
	order := []int{}
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "waiter", "waiter", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			ex.Wait(wq)
			order = append(order, i)
		})
	}
	k.SpawnThread(p, "waker", "waker", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.SleepFor(1 * sim.Millisecond)
		wq.WakeOne()
		ex.SleepFor(1 * sim.Millisecond)
		wq.WakeAll()
	})
	k.Run(5 * sim.Millisecond)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("wake order = %v, want [0 1] (FIFO)", order)
	}
}

func TestMsgQueueFIFOAndBlocking(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	q := k.NewMsgQueue("q")
	var got []int
	k.SpawnThread(p, "consumer", "consumer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 0; i < 3; i++ {
			got = append(got, ex.Recv(q).(int))
		}
	})
	k.SpawnThread(p, "producer", "producer", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 1; i <= 3; i++ {
			ex.SleepFor(sim.Millisecond)
			ex.Send(q, i)
		}
	})
	k.Run(10 * sim.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
}

func TestForkSharesReadonlyCopiesPrivate(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	parent := k.NewProcess("zygote", 1<<20, 1<<20)
	parent.Layout.Heap.Bytes()[0] = 7
	child := k.Fork(parent, "benchmark")
	if child.PID == parent.PID {
		t.Fatal("fork reused pid")
	}
	if child.Parent != parent {
		t.Fatal("parent link missing")
	}
	ch := child.AS.FindByName(mem.RegionHeap)
	if ch.Bytes()[0] != 7 {
		t.Fatal("child heap lost parent data")
	}
	ch.Bytes()[0] = 9
	if parent.Layout.Heap.Bytes()[0] != 7 {
		t.Fatal("child write leaked into parent heap")
	}
}

func TestBlockReadDrivesAta(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	doneAt := sim.Ticks(0)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.BlockRead(p.Layout.Heap, 64*1024)
		doneAt = ex.Now()
	})
	k.Run(50 * sim.Millisecond)
	if doneAt == 0 {
		t.Fatal("BlockRead never completed")
	}
	if k.Disk.BytesRead != 64*1024 {
		t.Fatalf("disk transferred %d bytes", k.Disk.BytesRead)
	}
	byProc := k.Stats.ByProcess()
	if byProc["ata_sff/0"] == 0 {
		t.Fatal("ata_sff/0 earned no references")
	}
	// The read landed in the heap region via copy_to_user.
	if k.Stats.ByRegion(stats.DataWrite)[mem.RegionHeap] == 0 {
		t.Fatal("no copy_to_user writes to heap")
	}
}

func TestSyscallAttributesKernelRegion(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Syscall(500, 100)
	})
	k.Run(sim.Millisecond)
	// Fold by process to exclude swapper-idle and ata refs, which also
	// land in the kernel region.
	if got := k.Stats.ByProcess(stats.IFetch)["benchmark"]; got != 500 {
		t.Fatalf("benchmark ifetch = %d, want 500 (all kernel-mode)", got)
	}
	if got := k.Stats.ByProcess(stats.DataKinds...)["benchmark"]; got != 100 {
		t.Fatalf("benchmark data = %d, want 100", got)
	}
	if got := k.Stats.ByRegion(stats.IFetch)[mem.RegionKernel]; got < 500 {
		t.Fatalf("kernel-region ifetch = %d, want >= 500", got)
	}
}

func TestThreadStacks(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	t1 := k.SpawnThread(p, "main", "main", func(ex *Exec) {})
	t2 := k.SpawnThread(p, "worker", "Thread", func(ex *Exec) {})
	if t1.Stack.Name != mem.RegionStack {
		t.Fatalf("main stack region = %q", t1.Stack.Name)
	}
	if t2.Stack.Name != mem.RegionAnonymous {
		t.Fatalf("pthread stack region = %q (want anonymous, as on Gingerbread)", t2.Stack.Name)
	}
	k.Run(sim.Millisecond)
}

func TestStackWorkSplitsReadsWrites(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.StackWork(900)
	})
	k.Run(sim.Millisecond)
	r := k.Stats.ByRegion(stats.DataRead)[mem.RegionStack]
	w := k.Stats.ByRegion(stats.DataWrite)[mem.RegionStack]
	if r == 0 || w == 0 {
		t.Fatalf("stack refs r=%d w=%d", r, w)
	}
	if r <= w {
		t.Fatalf("expected read-heavy stack mix, got r=%d w=%d", r, w)
	}
}

func TestDeterministicWholeRun(t *testing.T) {
	run := func() uint64 {
		k := newTestKernel()
		defer k.Shutdown()
		p := k.NewProcess("benchmark", 1<<20, 1<<20)
		for i := 0; i < 3; i++ {
			k.SpawnThread(p, "worker", "worker", func(ex *Exec) {
				ex.PushCode(p.Layout.Text)
				for j := 0; j < 50; j++ {
					ex.Fetch(uint64(100 + ex.P.RNG.Intn(100)))
					ex.SleepFor(sim.Ticks(ex.P.RNG.Range(10, 100)) * sim.Microsecond)
				}
			})
		}
		k.Run(10 * sim.Millisecond)
		return k.Stats.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("whole-system runs diverged: %d vs %d", a, b)
	}
}

func TestYieldRotates(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	var order []int
	for i := 0; i < 2; i++ {
		i := i
		k.SpawnThread(p, "y", "y", func(ex *Exec) {
			ex.PushCode(p.Layout.Text)
			for j := 0; j < 3; j++ {
				ex.Fetch(10)
				order = append(order, i)
				ex.Yield()
			}
		})
	}
	k.Run(5 * sim.Millisecond)
	if len(order) != 6 {
		t.Fatalf("order = %v", order)
	}
	// Strict alternation 0,1,0,1,...
	for j := 0; j < 6; j++ {
		if order[j] != j%2 {
			t.Fatalf("yield did not rotate: %v", order)
		}
	}
}

func TestExitedThreadNotRescheduled(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	runs := 0
	k.SpawnThread(p, "oneshot", "oneshot", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Fetch(10)
		runs++
	})
	k.Run(2 * sim.Millisecond)
	if runs != 1 {
		t.Fatalf("thread body ran %d times", runs)
	}
	if p.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", p.LiveThreads())
	}
}

func TestProcessAndThreadCounts(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	base := k.ProcessCount()
	p := k.NewProcess("a", 1<<20, 1<<20)
	k.Fork(p, "b")
	if k.ProcessCount() != base+2 {
		t.Fatalf("process count = %d, want %d", k.ProcessCount(), base+2)
	}
}

func TestKillProcessStopsThreadsMidRun(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	victim := k.NewProcess("victim", 1<<20, 1<<20)
	var victimRefs uint64
	for i := 0; i < 3; i++ {
		k.SpawnThread(victim, "worker", "worker", func(ex *Exec) {
			ex.PushCode(victim.Layout.Text)
			for {
				ex.Fetch(100)
				victimRefs += 100
				ex.SleepFor(50 * sim.Microsecond)
			}
		})
	}
	// A killer thread in another process terminates the victim mid-run —
	// the scenario driver's teardown path.
	killer := k.NewProcess("killer", 1<<20, 1<<20)
	k.SpawnThread(killer, "main", "main", func(ex *Exec) {
		ex.PushCode(killer.Layout.Text)
		ex.SleepFor(300 * sim.Microsecond)
		k.KillProcess(victim)
	})
	k.Run(1 * sim.Millisecond)
	if got := victim.LiveThreads(); got != 0 {
		t.Fatalf("victim live threads after kill = %d, want 0", got)
	}
	atKill := victimRefs
	if atKill == 0 {
		t.Fatal("victim never ran before the kill")
	}
	// Nothing of the victim runs after the kill.
	k.Run(2 * sim.Millisecond)
	if victimRefs != atKill {
		t.Fatalf("victim issued %d refs after being killed", victimRefs-atKill)
	}
	// Census still counts the dead process; the live count does not.
	if findProcess(k, "victim") == nil {
		t.Fatal("killed process vanished from the process table")
	}
	if lc, tc := k.LiveProcessCount(), k.ProcessCount(); lc >= tc {
		t.Fatalf("live process count %d not below total %d", lc, tc)
	}
	// Killing an already-dead process is a no-op.
	k.KillProcess(victim)
}

func TestKillProcessWakeOnDeadThreadIsNoop(t *testing.T) {
	k := newTestKernel()
	defer k.Shutdown()
	p := k.NewProcess("victim", 1<<20, 1<<20)
	wq := k.NewWaitQueue("test.park")
	k.SpawnThread(p, "parked", "parked", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		ex.Wait(wq)
	})
	k.Run(100 * sim.Microsecond)
	k.KillProcess(p)
	// A waker finding the dead thread on the queue must not resurrect it.
	wq.WakeAll()
	k.Run(200 * sim.Microsecond)
	if p.LiveThreads() != 0 {
		t.Fatal("dead thread came back to life")
	}
}
