package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"time"

	"agave/internal/android"
	"agave/internal/binder"
	"agave/internal/core"
	"agave/internal/dalvik"
	"agave/internal/fleet"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

// Each probe times one layer's exported call on a machine built only for
// it, repeating the call until the batch is long enough to time, and
// returns host time per call in the metric's unit. Sizes are fixed so the
// work per probe never changes between runs.

// forever is a deadline past any probe's simulated time: Run returns once
// every thread has exited or blocked and the clock idles to it.
const forever = 1 << 62

func bareKernel() *kernel.Kernel {
	return kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
}

// cpu.handoff_ns: one Exec.Wait / WakeOne ping-pong round trip between two
// threads, two scheduler handoffs.
func probeHandoff() (float64, error) {
	const n = 20_000
	k := bareKernel()
	defer k.Shutdown()
	p := k.NewProcess("probe", 64*loader.KB, 64*loader.KB)
	ping, pong := k.NewWaitQueue("ping"), k.NewWaitQueue("pong")
	rounds, done := 0, false
	// pong is spawned first so it is parked before ping's first wake.
	k.SpawnThread(p, "pong", "pong", func(ex *kernel.Exec) {
		for {
			ex.Wait(pong)
			if done {
				return
			}
			ping.WakeOne()
		}
	})
	k.SpawnThread(p, "ping", "ping", func(ex *kernel.Exec) {
		for ; rounds < n; rounds++ {
			pong.WakeOne()
			ex.Wait(ping)
		}
		done = true
		pong.WakeOne()
	})
	start := time.Now()
	k.Run(forever)
	el := time.Since(start)
	if rounds != n {
		return 0, fmt.Errorf("handoff probe finished %d of %d rounds", rounds, n)
	}
	return float64(el.Nanoseconds()) / n, nil
}

// kernel.spawn_exit_us: SpawnThread of a thread that exits at once, run to
// its exit (its stack mapping included).
func probeSpawnExit() (float64, error) {
	const n = 2_000
	k := bareKernel()
	defer k.Shutdown()
	p := k.NewProcess("probe", 64*loader.KB, 64*loader.KB)
	exited := 0
	child := func(*kernel.Exec) { exited++ }
	k.SpawnThread(p, "parent", "parent", func(ex *kernel.Exec) {
		for i := 0; i < n; i++ {
			k.SpawnThread(p, "child", "child", child)
			ex.Yield()
		}
	})
	start := time.Now()
	k.Run(forever)
	el := time.Since(start)
	if exited != n {
		return 0, fmt.Errorf("spawn probe: %d of %d children exited", exited, n)
	}
	return float64(el.Nanoseconds()) / n / 1e3, nil
}

// kernel.kill_us: KillProcess of a process whose threads are all blocked,
// so every thread is unwound.
func probeKill() (float64, error) {
	const procs, threads = 200, 4
	k := bareKernel()
	defer k.Shutdown()
	victims := make([]*kernel.Process, procs)
	for i := range victims {
		p := k.NewProcess("victim", 64*loader.KB, 64*loader.KB)
		wq := k.NewWaitQueue("park")
		for j := 0; j < threads; j++ {
			k.SpawnThread(p, "t", "t", func(ex *kernel.Exec) { ex.Wait(wq) })
		}
		victims[i] = p
	}
	k.Run(10 * sim.Millisecond)
	for _, p := range victims {
		for _, t := range p.Threads {
			if t.State != kernel.StateBlocked {
				return 0, fmt.Errorf("kill probe: thread %s is %v, not blocked", t, t.State)
			}
		}
	}
	start := time.Now()
	for _, p := range victims {
		k.KillProcess(p)
	}
	el := time.Since(start)
	for _, p := range victims {
		if n := p.LiveThreads(); n != 0 {
			return 0, fmt.Errorf("kill probe: %d threads survived KillProcess", n)
		}
	}
	return float64(el.Nanoseconds()) / procs / 1e3, nil
}

// denseVMAs is the largest address space of the dense-session workload at
// the shipped seed: system_server holds 289 VMAs when the session ends.
const denseVMAs = 289

// mem.map_ns: MapAnywhere of a page, at the next-library hint, into a space
// already holding denseVMAs mappings. The batch is unmapped untimed.
func probeMap() (float64, error) {
	const batch, rounds = 32, 400
	as := mem.NewAddressSpace(stats.NewCollector())
	layout := mem.NewLayout(as, 64*loader.KB, 64*loader.KB)
	for as.Count() < denseVMAs {
		layout.MapAnon(as, mem.PageSize)
	}
	maps := make([]*mem.VMA, batch)
	var el time.Duration
	for r := 0; r < rounds; r++ {
		hint := layout.NextLib
		start := time.Now()
		for i := range maps {
			maps[i] = as.MapAnywhere(hint, mem.PageSize, mem.RegionAnonymous, mem.PermRead|mem.PermWrite, mem.ClassAnon)
			hint = maps[i].End
		}
		el += time.Since(start)
		for _, v := range maps {
			if err := as.Unmap(v); err != nil {
				return 0, err
			}
		}
	}
	return float64(el.Nanoseconds()) / (batch * rounds), nil
}

// bootedMachine boots the Android stack with no app and runs warmup.
func bootedMachine(warmup int64) (*kernel.Kernel, *android.System) {
	k := bareKernel()
	sys := android.Boot(k)
	k.Run(sim.Ticks(warmup) * sim.Millisecond)
	return k, sys
}

// bootWarmupMS matches fleet-chaos, whose passes boot ~65 such machines.
const bootWarmupMS = 100

// android.boot_ms: kernel.New + android.Boot + warmup + Shutdown.
func probeBoot() (float64, error) {
	const n = 10
	start := time.Now()
	for i := 0; i < n; i++ {
		k, _ := bootedMachine(bootWarmupMS)
		k.Shutdown()
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1e6, nil
}

// mem.clone_us: AddressSpace.Clone of the booted zygote, the fork every
// app launch makes.
func probeClone() (float64, error) {
	const n = 500
	k, sys := bootedMachine(bootWarmupMS)
	defer k.Shutdown()
	start := time.Now()
	for i := 0; i < n; i++ {
		if sys.Zygote.AS.Clone().Count() != sys.Zygote.AS.Count() {
			return 0, fmt.Errorf("clone probe: clone lost mappings")
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1e3, nil
}

// binder.call_us: Driver.Call client → service → reply round trip.
func probeBinder() (float64, error) {
	const n = 5_000
	k := bareKernel()
	defer k.Shutdown()
	d := binder.NewDriver(k)
	server := k.NewProcess("server", 64*loader.KB, 64*loader.KB)
	client := k.NewProcess("client", 64*loader.KB, 64*loader.KB)
	d.Register(server, "echo", 1, func(ex *kernel.Exec, txn *binder.Transaction) {
		v, _ := txn.Data.ReadInt32()
		txn.Reply = binder.NewParcel()
		txn.Reply.WriteInt32(v + 1)
	})
	var callErr error
	calls := 0
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		for ; calls < n; calls++ {
			data := binder.NewParcel()
			data.WriteInt32(int32(calls))
			reply, err := d.Call(ex, "echo", 1, data)
			if err != nil {
				callErr = err
				return
			}
			if v, err := reply.ReadInt32(); err != nil || v != int32(calls)+1 {
				callErr = fmt.Errorf("binder probe: reply %d, %v", v, err)
				return
			}
		}
	})
	start := time.Now()
	k.Run(forever)
	el := time.Since(start)
	if callErr != nil {
		return 0, callErr
	}
	return float64(el.Nanoseconds()) / n / 1e3, nil
}

// android.looper_ns: Looper.Post from one thread, dispatched by Loop on
// another, which wakes the poster: one message round trip.
func probeLooper() (float64, error) {
	const n = 10_000
	k := bareKernel()
	defer k.Shutdown()
	p := k.NewProcess("app", 64*loader.KB, 64*loader.KB)
	l := android.NewLooper(k, "main")
	back := k.NewWaitQueue("back")
	dispatched := 0
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		l.Loop(ex, func(ex *kernel.Exec, m android.Message) {
			dispatched++
			back.WakeOne()
		})
	})
	k.SpawnThread(p, "poster", "poster", func(ex *kernel.Exec) {
		for i := 0; i < n; i++ {
			l.Post(ex, android.Message{What: 1, Arg: int64(i)})
			ex.Wait(back)
		}
		l.Quit(ex)
	})
	start := time.Now()
	k.Run(forever)
	el := time.Since(start)
	if dispatched != n {
		return 0, fmt.Errorf("looper probe dispatched %d of %d", dispatched, n)
	}
	return float64(el.Nanoseconds()) / n, nil
}

// dalvik.interp_mbc_per_s / dalvik.jit_mbc_per_s: vm.Exec of the stock
// sumLoop method, interpreted (JIT off) or force-compiled.
func probeDalvik(jit bool) (float64, error) {
	const n, calls = 20_000, 100
	const bytecodes = 4*n + 4 // sumLoop's dynamic instruction count
	k := bareKernel()
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
	vm := dalvik.Attach(p, lm, false)
	var el time.Duration
	var execErr error
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		d := vm.LoadDex(ex, dalvik.StockDex("benchmark"))
		if jit {
			vm.ForceCompile(d, "sumLoop")
		} else {
			vm.JITEnabled = false
		}
		start := time.Now()
		for i := 0; i < calls; i++ {
			if got := vm.Exec(ex, d, "sumLoop", n); got != int64(n)*(n-1)/2 {
				execErr = fmt.Errorf("dalvik probe: sumLoop(%d) = %d", n, got)
				return
			}
		}
		el = time.Since(start)
	})
	k.Run(forever)
	if execErr != nil {
		return 0, execErr
	}
	return float64(calls*bytecodes) / el.Seconds() / 1e6, nil
}

// fleet.worker_start_ms: one `agave fleet -worker` subprocess on a one-spec
// envelope, minus that spec's time run in this process — the fixed cost a
// worker adds per shard.
func probeWorkerStart(agave string, cfg core.Config, bench string) (float64, error) {
	const n = 5
	plan := suite.Plan{Benchmarks: []string{bench}, Seeds: []uint64{cfg.Seed},
		Ablations: []suite.Ablation{suite.Baseline}}
	spec, err := fleetSpec(cfg, plan, 1)
	if err != nil {
		return 0, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return 0, err
	}
	env, err := json.Marshal(fleet.Envelope{PlanHash: hash, Shard: 0, Spec: *spec})
	if err != nil {
		return 0, err
	}
	rs := plan.Specs()[0]
	diffs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(agave, "fleet", "-worker")
		cmd.Stdin = bytes.NewReader(env)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		start := time.Now()
		err := cmd.Run()
		sub := time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("fleet worker: %v: %s", err, errb.String())
		}
		if bytes.Count(out.Bytes(), []byte("\n")) != 2 { // one line + trailer
			return 0, fmt.Errorf("fleet worker printed %q", out.String())
		}
		start = time.Now()
		if _, _, err := core.RunOne(cfg, rs); err != nil {
			return 0, err
		}
		diffs = append(diffs, float64((sub-time.Since(start)).Nanoseconds())/1e6)
	}
	return median(diffs), nil
}

// fleet.decode_ns_per_line / fleet.observe_ns_per_line: DecodeLine and
// Aggregator.Observe over a pass's own result lines.
func probeLineCodec(lines [][]byte, shardSize int) (decodeNS, observeNS float64, err error) {
	const rounds = 200
	decoded := make([]fleet.Line, len(lines))
	var dec, obs time.Duration
	shards := suite.NumShards(len(lines), shardSize)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i, raw := range lines {
			if err := fleet.DecodeLine(raw, &decoded[i]); err != nil {
				return 0, 0, err
			}
		}
		dec += time.Since(start)
		agg := fleet.NewAggregator(len(lines), shardSize, "probe")
		for s := 0; s < shards; s++ {
			lo, hi := suite.ShardRange(len(lines), shardSize, s)
			start := time.Now()
			for i := lo; i < hi; i++ {
				if err := agg.Observe(s, lines[i], &decoded[i]); err != nil {
					return 0, 0, err
				}
			}
			obs += time.Since(start)
			if _, err := agg.FinishShard(s, -1, ""); err != nil {
				return 0, 0, err
			}
		}
	}
	per := float64(rounds * len(lines))
	return float64(dec.Nanoseconds()) / per, float64(obs.Nanoseconds()) / per, nil
}
