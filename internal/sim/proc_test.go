package sim

import "testing"

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		woke = p.Now()
	})
	e.Run()
	if woke != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", woke)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * Nanosecond)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	if len(marks) != 5 || marks[4] != 50*Nanosecond {
		t.Fatalf("marks = %v", marks)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(7 * Nanosecond)
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("run %d diverged: %v vs %v", i, first, again)
			}
		}
	}
	// At equal timestamps, start order must be preserved.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestProcSuspendWake(t *testing.T) {
	e := NewEngine()
	var wake func()
	var resumed Time
	e.Go("waiter", func(p *Proc) {
		p.Suspend(func(w func()) { wake = w })
		resumed = p.Now()
	})
	e.At(33*Nanosecond, func() { wake() })
	e.Run()
	if resumed != 33*Nanosecond {
		t.Fatalf("resumed at %v, want 33ns", resumed)
	}
}

func TestProcSuspendSynchronousWake(t *testing.T) {
	// If the condition already holds, arm fires wake inline and Suspend
	// must return without parking.
	e := NewEngine()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Suspend(func(wake func()) { wake() })
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("proc did not run past synchronous wake")
	}
}

func TestProcKillUnwinds(t *testing.T) {
	e := NewEngine()
	reached := false
	p := e.Go("victim", func(p *Proc) {
		p.Sleep(1000 * Nanosecond)
		reached = true
	})
	e.At(10*Nanosecond, func() { p.Kill() })
	e.Run()
	if reached {
		t.Fatal("killed proc ran past its sleep")
	}
	if !p.Done() {
		t.Fatal("killed proc not marked done")
	}
	if e.procs != 0 {
		t.Fatalf("live proc count = %d, want 0", e.procs)
	}
}

func TestProcKillParkedProc(t *testing.T) {
	e := NewEngine()
	p := e.Go("parked", func(p *Proc) {
		p.Suspend(func(wake func()) { /* never wake */ })
		t.Error("parked proc resumed unexpectedly")
	})
	e.At(5*Nanosecond, func() { p.Kill() })
	e.Run()
	if !p.Done() {
		t.Fatal("killed parked proc not done")
	}
}

// TestProcKillBeforeStart: a process killed before its start event
// fires never runs its body, whether Go and Kill come from the top level
// or from a callback, and whether the body would yield or not.
func TestProcKillBeforeStart(t *testing.T) {
	e := NewEngine()
	var ran []string
	p := e.Go("top", func(p *Proc) {
		ran = append(ran, "top")
		p.Sleep(Nanosecond)
	})
	p.Kill()
	var q *Proc
	e.At(5*Nanosecond, func() {
		q = e.Go("callback", func(p *Proc) { ran = append(ran, "callback") })
		q.Kill()
	})
	e.Run()
	if len(ran) != 0 {
		t.Fatalf("killed unstarted processes ran their bodies: %v", ran)
	}
	if !p.Done() || !q.Done() {
		t.Fatalf("killed unstarted processes not done: top %v, callback %v", p.Done(), q.Done())
	}
	if e.procs != 0 {
		t.Fatalf("live proc count = %d, want 0", e.procs)
	}
}

func TestProcKillIdempotent(t *testing.T) {
	e := NewEngine()
	p := e.Go("victim", func(p *Proc) { p.Sleep(Second) })
	e.At(Nanosecond, func() { p.Kill(); p.Kill() })
	e.Run()
	if !p.Done() {
		t.Fatal("proc not done after double kill")
	}
}

func TestProcYieldRunsSameInstantEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("p", func(p *Proc) {
		order = append(order, "before")
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after")
	})
	e.Run()
	want := []string{"before", "event", "after"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureAwait(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int]()
	var got int
	var at Time
	e.Go("awaiter", func(p *Proc) {
		v, err := f.Await(p)
		if err != nil {
			t.Errorf("Await error: %v", err)
		}
		got, at = v, p.Now()
	})
	e.At(77*Nanosecond, func() { f.Complete(42) })
	e.Run()
	if got != 42 || at != 77*Nanosecond {
		t.Fatalf("got %d at %v, want 42 at 77ns", got, at)
	}
}

func TestFutureAwaitAlreadyDone(t *testing.T) {
	e := NewEngine()
	f := NewFuture[string]()
	f.Complete("ready")
	var got string
	e.Go("p", func(p *Proc) { got, _ = f.Await(p) })
	e.Run()
	if got != "ready" {
		t.Fatalf("got %q", got)
	}
}

func TestFutureCallbackOrder(t *testing.T) {
	f := NewFuture[int]()
	var order []int
	f.OnComplete(func(int, error) { order = append(order, 1) })
	f.OnComplete(func(int, error) { order = append(order, 2) })
	f.Complete(0)
	f.OnComplete(func(int, error) { order = append(order, 3) })
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	f := NewFuture[int]()
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestFutureFailPropagates(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int]()
	var gotErr error
	e.Go("p", func(p *Proc) { _, gotErr = f.Await(p) })
	e.At(Nanosecond, func() { f.Fail(errSentinel) })
	e.Run()
	if gotErr != errSentinel {
		t.Fatalf("err = %v, want sentinel", gotErr)
	}
}

var errSentinel = errTest("sentinel")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestAwaitAll(t *testing.T) {
	e := NewEngine()
	fs := []*Future[int]{NewFuture[int](), NewFuture[int](), NewFuture[int]()}
	var done Time
	e.Go("p", func(p *Proc) {
		if err := AwaitAll(p, fs); err != nil {
			t.Errorf("AwaitAll: %v", err)
		}
		done = p.Now()
	})
	e.At(10*Nanosecond, func() { fs[1].Complete(1) })
	e.At(20*Nanosecond, func() { fs[0].Complete(0) })
	e.At(30*Nanosecond, func() { fs[2].Complete(2) })
	e.Run()
	if done != 30*Nanosecond {
		t.Fatalf("AwaitAll finished at %v, want 30ns", done)
	}
}

// TestProcPanicReachesRun: a model panic inside a process body unwinds
// to the goroutine that called Run, where the caller can recover it,
// whether the dispatch loop resumed the process or a Future.Complete
// woke it synchronously from a callback.
func TestProcPanicReachesRun(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Engine) *Proc
	}{
		{"dispatch loop", func(e *Engine) *Proc {
			return e.Go("bug", func(p *Proc) {
				p.Sleep(Nanosecond)
				panic("model bug")
			})
		}},
		{"synchronous wake", func(e *Engine) *Proc {
			f := NewFuture[int]()
			e.At(5*Nanosecond, func() { f.Complete(1) })
			return e.Go("bug", func(p *Proc) {
				f.MustAwait(p)
				panic("model bug")
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			p := tc.setup(e)
			e.Go("bystander", func(p *Proc) { p.Sleep(Second) })
			got := func() (rec any) {
				defer func() { rec = recover() }()
				e.Run()
				return nil
			}()
			if got != "model bug" {
				t.Fatalf("Run recovered %v, want the process's panic", got)
			}
			if !p.Done() || e.procs != 1 {
				t.Fatalf("after the panic: done %v, live procs %d; want true, 1 (the bystander)", p.Done(), e.procs)
			}
		})
	}
}
