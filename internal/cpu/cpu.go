// Package cpu implements the execution engine of the reproduction: an
// atomic, in-order CPU model in the spirit of gem5's AtomicSimpleCPU as used
// by the paper ("we run gem5's atomic CPU model without caches to quickly
// generate these statistics"). Every operation retires in one tick; there is
// no cache or memory timing.
//
// Simulated threads are Go goroutines coupled to the scheduler by strict
// channel handoff: exactly one simulated thread runs at any moment, and a
// thread runs only while holding a quantum grant. This makes whole-system
// runs bit-deterministic while letting workload models be written as plain
// straight-line Go code instead of resumable state machines.
package cpu

import (
	"fmt"

	"agave/internal/sim"
)

// Model describes the CPU configuration. The reproduction always uses the
// atomic model; the struct exists so benches and docs can name it.
type Model struct {
	Name       string
	ClockHz    uint64
	InstPerTik uint64
}

// Atomic is the paper's configuration: 1 GHz atomic CPU, no caches.
var Atomic = Model{Name: "atomic", ClockHz: 1e9, InstPerTik: 1}

// Reason says why a thread yielded back to the scheduler.
type Reason uint8

// Yield reasons.
const (
	// YieldQuantum: the granted quantum was exhausted; the thread is still
	// runnable.
	YieldQuantum Reason = iota
	// YieldBlocked: the thread blocked on a kernel object (futex, binder
	// reply, message queue, IO) and must be woken explicitly.
	YieldBlocked
	// YieldSleep: the thread sleeps until Yield.WakeAt.
	YieldSleep
	// YieldExit: the thread body returned (or was killed); it will never
	// run again.
	YieldExit
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case YieldQuantum:
		return "quantum"
	case YieldBlocked:
		return "blocked"
	case YieldSleep:
		return "sleep"
	case YieldExit:
		return "exit"
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// Yield is the report a thread hands the scheduler when it stops running.
type Yield struct {
	Used   sim.Ticks // ticks consumed since the grant
	Reason Reason
	WakeAt sim.Ticks // valid for YieldSleep
}

type grant struct {
	quantum sim.Ticks
	kill    bool
}

// killed is the panic sentinel used to unwind a killed thread body.
type killed struct{}

// Context is one simulated thread's execution context.
type Context struct {
	grantCh chan grant
	yieldCh chan Yield

	// thread-side state (touched only while holding the grant)
	quantum sim.Ticks
	used    sim.Ticks

	// scheduler-side state
	exited  bool
	started bool
}

// NewContext returns a context ready for Start.
func NewContext() *Context {
	return &Context{
		grantCh: make(chan grant),
		yieldCh: make(chan Yield),
	}
}

// Start launches body(arg) as the thread's code. The body does not run until
// the scheduler grants a quantum with Run. When body returns (or the thread
// is killed) the context reports YieldExit.
//
// The explicit arg exists so hot spawn paths can pass a package-level
// function plus a pointer argument instead of allocating a capturing closure
// per thread; callers that don't care pass nil and ignore it.
func (c *Context) Start(body func(arg any), arg any) {
	if c.started {
		panic("cpu: context started twice")
	}
	c.started = true
	go func() {
		g := <-c.grantCh
		if g.kill {
			c.yieldCh <- Yield{Reason: YieldExit}
			return
		}
		c.quantum = g.quantum
		c.used = 0
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killed); !ok {
					panic(r)
				}
			}
			c.yieldCh <- Yield{Used: c.used, Reason: YieldExit}
		}()
		body(arg)
	}()
}

// Run grants the thread a quantum and blocks until it yields. It must only
// be called by the scheduler, for a started, non-exited context.
func (c *Context) Run(quantum sim.Ticks) Yield {
	if c.exited {
		panic("cpu: Run on exited context")
	}
	c.grantCh <- grant{quantum: quantum}
	y := <-c.yieldCh
	if y.Reason == YieldExit {
		c.exited = true
	}
	return y
}

// Kill unwinds the thread body and retires the context. Safe to call on a
// blocked or sleeping thread; a no-op on an exited one.
func (c *Context) Kill() {
	if c.exited || !c.started {
		c.exited = true
		return
	}
	c.grantCh <- grant{kill: true}
	<-c.yieldCh
	c.exited = true
}

// Exited reports whether the thread will never run again.
func (c *Context) Exited() bool { return c.exited }

// Recycle returns an exited context to like-new state so it can serve a new
// thread: the old goroutine has exited and both handoff channels are empty,
// so Start may be called again. Panics on a live context — recycling one
// would hand its channels to two goroutines at once.
func (c *Context) Recycle() {
	if c.started && !c.exited {
		panic("cpu: recycle of live context")
	}
	c.started = false
	c.exited = false
	c.quantum = 0
	c.used = 0
}

// --- thread-side API (call only from inside the body) ---

// Charge consumes n ticks of the current quantum. If the quantum is
// exhausted, the thread yields and resumes transparently on its next grant.
// Large charges are allowed to overrun the quantum (atomic ops are not
// preemptable mid-instruction); bulk helpers chunk their charges.
func (c *Context) Charge(n sim.Ticks) {
	c.used += n
	if c.used >= c.quantum {
		c.yieldWait(Yield{Used: c.used, Reason: YieldQuantum})
	}
}

// YieldNow ends the quantum early without consuming extra ticks; the thread
// stays runnable (sched_yield).
func (c *Context) YieldNow() {
	c.yieldWait(Yield{Used: c.used, Reason: YieldQuantum})
}

// Block yields with YieldBlocked and returns once the scheduler wakes the
// thread with a fresh grant.
func (c *Context) Block() {
	c.yieldWait(Yield{Used: c.used, Reason: YieldBlocked})
}

// Sleep yields until the simulated clock reaches wakeAt.
func (c *Context) Sleep(wakeAt sim.Ticks) {
	c.yieldWait(Yield{Used: c.used, Reason: YieldSleep, WakeAt: wakeAt})
}

func (c *Context) yieldWait(y Yield) {
	c.yieldCh <- y
	g := <-c.grantCh
	if g.kill {
		panic(killed{})
	}
	c.quantum = g.quantum
	c.used = 0
}
