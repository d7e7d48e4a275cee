package sim

//fcclint:hotpath process handoff is the hottest non-event path (PR 5)
//fcclint:conc proc handoff rendezvous with the engine main hand

// Proc is a cooperatively scheduled simulation process. Each Proc runs on
// its own goroutine, but the engine resumes exactly one process at a time
// and blocks until that process either yields (Sleep/Await/Suspend) or
// returns, so execution remains deterministic — processes are simply a
// more convenient notation for sequential model code (workload drivers,
// CPU threads, controller firmware) than chained callbacks.
//
// # Handoff structure
//
// Control transfers use a park-only binary semaphore (handoff), and the
// transfer topology is flattened so the common paths skip goroutine
// switches entirely:
//
//   - A process that sleeps and whose own wake-up is the next pending
//     event consumes that event in place: zero goroutine switches
//     (the BenchmarkProcSwitch steady state).
//   - A process that yields while another process's wake-up is next
//     hands control directly to that process: one switch, not two
//     (old: yield to engine, engine resumes peer).
//   - Only when the next event is a plain callback (or the queue is
//     empty/bounded) does control return to the Run caller's goroutine,
//     which is the only goroutine that executes non-process events.
//
// A switch costs one channel send, one park and one scheduler pass: the
// send makes the parked waiter runnable in the signalling P's runnext
// slot, and the signaller's own wait parks at once, so the scheduler
// runs the waiter next. Waits never spin first. Each yield of a spin
// loop puts the waiting runner back on the global run queue; with up to
// 16 yields before parking, a handoff cost 6.7–8.3 scheduler trips, and
// goroutine scheduling was the largest cost in the fccperf ledger (47%
// of farmem-stream's CPU).
//
// Synchronous wakes from event context (Suspend/Await) keep their exact
// blocking semantics — the woken process runs immediately, nested inside
// the firing callback — so event and model execution order is unchanged
// from the channel-based implementation (same-seed runs are
// byte-identical across the two).
type Proc struct {
	eng    *Engine
	name   string
	fn     func(p *Proc)
	r      *runner
	done   bool
	killed bool
	// nested marks that the current resume came from event context
	// (resumeBlocking): the next pause must return control to the
	// blocked caller, not to the dispatch loop.
	nested bool
}

// handoff is a binary semaphore carrying the "exactly one goroutine
// runs" token. Every wait parks immediately. The one slot of buffer lets
// a signal land before its waiter arrives (a runner not yet at its
// wait, or a waiter still running on another P), and strict alternation
// (one token in flight per handoff) means signal never blocks. The
// channel carries the happens-before edge for the race detector.
type handoff chan struct{}

func newHandoff() handoff { return make(handoff, 1) }

// signal deposits the token, waking the parked waiter if there is one.
func (h handoff) signal() { h <- struct{}{} }

// wait parks until the token arrives and consumes it.
func (h handoff) wait() { <-h }

// runner is the goroutine + rendezvous pair a process executes on.
// Runners are pooled on the engine: a short-lived workload thread costs
// no goroutine or channel construction when a finished runner is free
// (the pool is drained when Run returns, so idle engines hold no parked
// goroutines beyond genuinely suspended processes).
type runner struct {
	hand   handoff // resume: token granting this runner's proc the right to run
	back   handoff // nested yield: proc -> blocked resumeBlocking caller
	p      *Proc
	retire bool
	next   *runner // engine free list
}

func newRunner() *runner {
	r := &runner{hand: newHandoff(), back: newHandoff()}
	go runnerLoop(r)
	return r
}

func runnerLoop(r *runner) {
	for {
		r.hand.wait()
		if r.retire {
			return
		}
		runBody(r.p)
	}
}

// runBody executes one process body and routes control onward when it
// returns or unwinds. A process killed before its first resume never
// enters its body.
func runBody(p *Proc) {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(procKilled); !ok {
				// A model panic: hand control back (so the engine side
				// unblocks rather than wedging) and re-raise; the
				// program is going down with the original value.
				p.done = true
				p.eng.procs--
				if p.nested {
					p.r.back.signal()
				} else {
					p.eng.mainHand.signal()
				}
				panic(rec)
			}
		}
		if !p.done {
			p.finish()
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

// bind attaches a pooled (or new) runner goroutine to p.
func (p *Proc) bind() {
	e := p.eng
	r := e.freeRunner
	if r != nil {
		e.freeRunner = r.next
		r.next = nil
	} else {
		r = newRunner()
		e.runnersMinted++
	}
	r.p = p
	p.r = r
}

// resume hands the run token to p, binding a runner on first resume.
// The caller must immediately either park or return to model code.
func (e *Engine) resume(p *Proc) {
	if p.r == nil {
		p.bind()
	}
	p.r.hand.signal()
}

// resumeBlocking runs p from event context until it pauses or finishes,
// blocking the calling goroutine — the synchronous wake used by
// Suspend/Await and by Step. Resuming a finished process is a no-op: a
// Kill and a pending wake-up can race benignly.
func (p *Proc) resumeBlocking() {
	if p.done {
		return
	}
	p.nested = true
	if p.r == nil {
		p.bind()
	}
	// Capture the runner before granting the token: the process may
	// finish and detach p.r before we reach the wait.
	r := p.r
	r.hand.signal()
	r.back.wait()
}

// finish retires a completed process: its runner returns to the engine
// pool and control routes onward exactly as a pause would.
func (p *Proc) finish() {
	e := p.eng
	p.done = true
	e.procs--
	r := p.r
	nested := p.nested
	p.nested = false
	p.r = nil
	r.p = nil
	r.next = e.freeRunner
	e.freeRunner = r
	if nested {
		r.back.signal()
		return
	}
	if q, ok := e.takeProcEvent(); ok {
		e.resume(q)
	} else {
		e.mainHand.signal()
	}
}

type procKilled struct{}

// pause returns control from the process and blocks until resumed.
// Called from the process goroutine only.
func (p *Proc) pause() {
	r := p.r
	if p.nested {
		// Resumed from event context: unblock that caller.
		p.nested = false
		r.back.signal()
	} else {
		// We hold the dispatch token. Consume our own wake-up in place
		// (zero switches), hand directly to the next process (one
		// switch), or return the token to the Run caller.
		e := p.eng
		if q, ok := e.takeProcEvent(); ok {
			if q == p {
				if p.killed {
					panic(procKilled{})
				}
				return
			}
			e.resume(q)
		} else {
			e.mainHand.signal()
		}
	}
	r.hand.wait()
	if p.killed {
		panic(procKilled{})
	}
}

// drainRunners retires every pooled runner goroutine; called when Run
// returns so idle engines pin no goroutines beyond suspended processes.
func (e *Engine) drainRunners() {
	for r := e.freeRunner; r != nil; r = r.next {
		r.retire = true
		r.hand.signal()
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
// called from event context. arm runs on the process goroutine before the
// park, so it can register wake as a completion callback without racing.
// If wake fires synchronously inside arm (the awaited condition already
// held), Suspend returns without parking. Waking twice panics.
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
