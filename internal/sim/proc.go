//go:build go1.23

package sim

//fcclint:hotpath process handoff is the hottest non-event path (PR 5)

// iter.Pull is Go 1.23, but go.mod stays at go 1.22 because the nested
// cmd/fccperf module pins it; the go1.23 build line raises this file's
// language version instead (DESIGN.md "Proc handoff").
import "iter"

// Proc is a cooperatively scheduled simulation process. Each Proc runs on
// a runtime coroutine (iter.Pull), and the engine resumes exactly one
// process at a time and waits until that process either yields
// (Sleep/Await/Suspend) or returns, so execution remains deterministic —
// processes are simply a more convenient notation for sequential model
// code (workload drivers, CPU threads, controller firmware) than chained
// callbacks.
//
// # Handoff structure
//
// Resuming a process is the coroutine's next, and a pause is its yield,
// which returns control to whoever resumed it: the dispatch loop
// (driveTo), or the callback or process that woke it synchronously
// (Future.finish, Suspend's wake, Step). Each is one direct coroswitch,
// with no channel, park or scheduler pass.
//
//   - A process the dispatch loop resumed, whose own wake-up is the next
//     pending event, consumes that event in place: no switch at all
//     (the BenchmarkProcSwitch steady state).
//   - Every other pause yields to its resumer. The dispatch loop then
//     pops the next event, so a switch between two processes passes
//     through it: process, dispatch loop, peer.
//
// Synchronous wakes from event context (Suspend/Await) keep their exact
// blocking semantics — the woken process runs immediately, nested inside
// the firing callback — so event and model execution order is a pure
// function of the schedule (TestProcInterleavingGolden pins it).
//
// A panic in a process body other than a Kill's unwinding is a model
// bug. iter.Pull carries it to whoever resumed the process, so it
// reaches the goroutine that called Run, RunUntil or Step.
type Proc struct {
	eng    *Engine
	name   string
	fn     func(p *Proc)
	r      *runner
	done   bool
	killed bool
	// dispatched marks that the current resume came from the dispatch
	// loop, so a pause may consume the process's own next wake-up in
	// place. A synchronous wake must instead return control to its
	// caller.
	dispatched bool
}

// runner is the coroutine a process executes on. Its loop runs one
// process body after another, so runners are pooled on the engine: a
// short-lived workload thread costs no coroutine construction when a
// finished runner is free (the pool is drained when Run returns, so idle
// engines hold no coroutines beyond genuinely suspended processes).
type runner struct {
	next  func() (struct{}, bool) // resume the bound process
	stop  func()                  // retire an idle runner
	yield func(struct{}) bool     // return control to the resumer
	p     *Proc
	free  *runner // engine free list
}

func newRunner() *runner {
	r := &runner{}
	r.next, r.stop = iter.Pull(func(yield func(struct{}) bool) {
		r.yield = yield
		for {
			p := r.p
			p.runBody()
			p.finish()
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return r
}

// runBody executes one process body. A process killed before its first
// resume never enters its body, and a Kill's unwinding stops here. Any
// other panic is re-raised, so iter.Pull carries it to the resumer.
func (p *Proc) runBody() {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(procKilled); !ok {
				p.done = true
				p.eng.procs--
				panic(rec)
			}
		}
	}()
	if !p.killed {
		p.fn(p)
	}
}

// Go starts fn as a new process at the current simulation time. The
// process body may call the blocking operations on Proc; it must never
// block on anything else (real channels, locks held across yields), or
// the simulation will deadlock.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	e.procs++
	// The start is an ordinary proc-resume event, so start order at equal
	// timestamps follows Go-call order exactly as before. The runner is
	// bound lazily, when the start event is dispatched.
	e.atProc(e.now, p)
	return p
}

// bind attaches a pooled (or new) runner to p.
func (p *Proc) bind() {
	e := p.eng
	r := e.freeRunner
	if r != nil {
		e.freeRunner = r.free
		r.free = nil
	} else {
		r = newRunner()
		e.runnersMinted++
	}
	r.p = p
	p.r = r
}

// resume runs p until it pauses or finishes, binding a runner on first
// resume. dispatched records whether the dispatch loop is the resumer.
func (p *Proc) resume(dispatched bool) {
	if p.r == nil {
		p.bind()
	}
	p.dispatched = dispatched
	p.r.next()
}

// resumeBlocking runs p from event context until it pauses or finishes —
// the synchronous wake used by Suspend/Await and by Step. Resuming a
// finished process is a no-op: a Kill and a pending wake-up can race
// benignly.
func (p *Proc) resumeBlocking() {
	if !p.done {
		p.resume(false)
	}
}

// finish retires a completed process: its runner returns to the engine
// pool, and the runner loop then yields to the resumer.
func (p *Proc) finish() {
	e := p.eng
	p.done = true
	e.procs--
	r := p.r
	p.r = nil
	r.p = nil
	r.free = e.freeRunner
	e.freeRunner = r
}

type procKilled struct{}

// pause returns control from the process and blocks until resumed.
// Called on the process's runner only.
func (p *Proc) pause() {
	if !p.dispatched || !p.eng.takeOwnWake(p) {
		p.r.yield(struct{}{})
	}
	if p.killed {
		panic(procKilled{})
	}
}

// drainRunners retires every pooled runner; called when Run returns so
// idle engines pin no coroutines beyond suspended processes.
func (e *Engine) drainRunners() {
	for r := e.freeRunner; r != nil; r = r.free {
		r.stop()
	}
	e.freeRunner = nil
}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d of virtual time, saturating at
// MaxTime (see SaturatingAdd). Negative d panics (via the past check in
// atProc).
func (p *Proc) Sleep(d Time) {
	p.eng.atProc(SaturatingAdd(p.eng.now, d), p)
	p.pause()
}

// Suspend parks the process until the wake function handed to arm is
// called from event context. arm runs on the process before the park, so
// it can register wake as a completion callback without racing. If wake
// fires synchronously inside arm (the awaited condition already held),
// Suspend returns without parking. Waking twice panics.
func (p *Proc) Suspend(arm func(wake func())) {
	fired := false
	parked := false
	arm(func() {
		if fired {
			panic("sim: proc woken twice")
		}
		fired = true
		if parked {
			p.resumeBlocking()
		}
	})
	if fired {
		if p.killed {
			panic(procKilled{})
		}
		return
	}
	parked = true
	p.pause()
}

// Kill aborts the process: the next time it would be resumed it unwinds
// instead. A parked process is resumed immediately so it cannot linger
// forever. Kill must be called from event context (or another process),
// never from the victim itself.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	p.eng.atProc(p.eng.now, p)
}

// Yield lets other events scheduled at the current instant run before the
// process continues.
func (p *Proc) Yield() { p.Sleep(0) }
