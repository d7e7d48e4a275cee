package sim

import "testing"

// TestProcSwitchZeroAlloc pins the handoff rewrite's allocation
// contract: a steady-state Sleep yield (own wake-up next — the dominant
// pattern) must not allocate. The wake event is pooled and the process
// pointer rides in the event's arg slot without boxing.
func TestProcSwitchZeroAlloc(t *testing.T) {
	e := NewEngine()
	var n float64
	e.Go("spinner", func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Sleep(Nanosecond) // warm the event pool
		}
		n = testing.AllocsPerRun(2000, func() {
			p.Sleep(Nanosecond)
		})
	})
	e.Run()
	if n != 0 {
		t.Fatalf("steady-state Sleep yield allocates %.1f per switch, want 0", n)
	}
}

// TestProcSpawnAllocCeiling pins the runner free list: spawning a
// short-lived process to completion with a warm pool costs exactly one
// allocation, the Proc struct itself — no new coroutine.
func TestProcSpawnAllocCeiling(t *testing.T) {
	e := NewEngine()
	var n float64
	body := func(c *Proc) {}
	e.Go("driver", func(p *Proc) {
		// Warm past the runtime's first-use transients (coroutine stack
		// growth, dispatch-list storage) so the ceiling
		// measures the steady state the free list is responsible for.
		for i := 0; i < 4096; i++ {
			e.Go("warm", body)
			p.Sleep(Nanosecond)
		}
		n = testing.AllocsPerRun(1000, func() {
			e.Go("w", body)
			p.Sleep(Nanosecond)
		})
	})
	e.Run()
	if n > 1 {
		t.Fatalf("spawn-to-completion allocates %.1f with a warm runner pool, want <= 1 (the Proc)", n)
	}
}

// TestProcSpawnReusesRunners: sequential short-lived processes share one
// pooled runner coroutine instead of constructing one per spawn.
func TestProcSpawnReusesRunners(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		at := Time(i) * Microsecond
		e.At(at, func() {
			e.Go("w", func(p *Proc) { p.Sleep(Nanosecond) })
		})
	}
	e.Run()
	if e.runnersMinted != 1 {
		t.Fatalf("100 sequential spawns minted %d runners, want 1", e.runnersMinted)
	}
}

// TestRunDrainsRunnerPool: Run must retire pooled runner coroutines on
// exit so idle engines pin none beyond suspended processes.
func TestRunDrainsRunnerPool(t *testing.T) {
	e := NewEngine()
	e.Go("w", func(p *Proc) {})
	e.Run()
	if e.freeRunner != nil {
		t.Fatal("runner pool not drained after Run returned")
	}
}
