package cpu

import (
	"testing"

	"agave/internal/sim"
)

func TestQuantumExpiry(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {
		for i := 0; i < 10; i++ {
			c.Charge(10)
		}
	}, nil)
	y := c.Run(25)
	if y.Reason != YieldQuantum {
		t.Fatalf("reason = %v, want quantum", y.Reason)
	}
	if y.Used != 30 { // 10+10+10 crosses the 25-tick quantum at 30
		t.Fatalf("used = %d, want 30", y.Used)
	}
	y = c.Run(25)
	if y.Reason != YieldQuantum || y.Used != 30 {
		t.Fatalf("second slice = %+v", y)
	}
	y = c.Run(1000)
	if y.Reason != YieldExit {
		t.Fatalf("final reason = %v, want exit", y.Reason)
	}
	if y.Used != 40 {
		t.Fatalf("final used = %d, want 40", y.Used)
	}
	if !c.Exited() {
		t.Fatal("context not marked exited")
	}
}

func TestExitWithoutCharge(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {}, nil)
	y := c.Run(100)
	if y.Reason != YieldExit || y.Used != 0 {
		t.Fatalf("yield = %+v", y)
	}
}

func TestBlockAndResume(t *testing.T) {
	c := NewContext()
	phase := 0
	c.Start(func(any) {
		c.Charge(5)
		phase = 1
		c.Block()
		phase = 2
		c.Charge(5)
	}, nil)
	y := c.Run(100)
	if y.Reason != YieldBlocked || y.Used != 5 || phase != 1 {
		t.Fatalf("block yield = %+v phase=%d", y, phase)
	}
	y = c.Run(100)
	if y.Reason != YieldExit || phase != 2 {
		t.Fatalf("resume yield = %+v phase=%d", y, phase)
	}
	if y.Used != 5 {
		t.Fatalf("used after resume = %d, want 5 (fresh count)", y.Used)
	}
}

func TestSleepCarriesWakeTime(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {
		c.Sleep(12345)
	}, nil)
	y := c.Run(100)
	if y.Reason != YieldSleep || y.WakeAt != 12345 {
		t.Fatalf("yield = %+v", y)
	}
	c.Kill()
}

func TestYieldNow(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {
		c.Charge(3)
		c.YieldNow()
		c.Charge(4)
	}, nil)
	y := c.Run(1000)
	if y.Reason != YieldQuantum || y.Used != 3 {
		t.Fatalf("yield = %+v", y)
	}
	y = c.Run(1000)
	if y.Reason != YieldExit || y.Used != 4 {
		t.Fatalf("yield = %+v", y)
	}
}

func TestKillBlockedThread(t *testing.T) {
	c := NewContext()
	cleanedUp := false
	c.Start(func(any) {
		defer func() { cleanedUp = true }()
		c.Charge(1)
		c.Block()
		t.Error("killed thread resumed body")
	}, nil)
	y := c.Run(100)
	if y.Reason != YieldBlocked {
		t.Fatalf("yield = %+v", y)
	}
	c.Kill()
	if !c.Exited() {
		t.Fatal("killed context not exited")
	}
	if !cleanedUp {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

func TestKillNeverGrantedThread(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {
		t.Error("never-granted thread ran")
	}, nil)
	c.Kill()
	if !c.Exited() {
		t.Fatal("not exited")
	}
}

func TestKillExitedIsNoop(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {}, nil)
	c.Run(10)
	c.Kill()
	c.Kill()
}

func TestDoubleStartPanics(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
		c.Run(10) // drain the first body
	}()
	c.Start(func(any) {}, nil)
}

func TestChargeOverrunAllowed(t *testing.T) {
	c := NewContext()
	c.Start(func(any) {
		c.Charge(1000) // single huge op: atomic, not preemptable
	}, nil)
	y := c.Run(10)
	if y.Reason != YieldQuantum || y.Used != 1000 {
		t.Fatalf("yield = %+v", y)
	}
	c.Run(10)
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []sim.Ticks {
		var used []sim.Ticks
		a, b := NewContext(), NewContext()
		a.Start(func(any) {
			for i := 0; i < 5; i++ {
				a.Charge(7)
			}
		}, nil)
		b.Start(func(any) {
			for i := 0; i < 5; i++ {
				b.Charge(11)
			}
		}, nil)
		for !a.Exited() || !b.Exited() {
			if !a.Exited() {
				used = append(used, a.Run(10).Used)
			}
			if !b.Exited() {
				used = append(used, b.Run(10).Used)
			}
		}
		return used
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, r1, r2)
		}
	}
}

func TestReasonString(t *testing.T) {
	for r, want := range map[Reason]string{
		YieldQuantum: "quantum", YieldBlocked: "blocked",
		YieldSleep: "sleep", YieldExit: "exit",
	} {
		if r.String() != want {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}
