package sim

import (
	"fmt"
	"slices"
	"testing"
)

// tickNet is a tiny self-perpetuating multi-shard model for coordinator
// unit tests: each shard runs a periodic local tick that reschedules
// itself and optionally sends a cross-shard message per tick. Tick args
// are preallocated, and each message's arg is handed back by its
// receiver and reused by its sender, so steady-state rounds are
// allocation-free.
type tickNet struct {
	c      *Coordinator
	period Time
	delay  Time // cross-shard message delay
	fires  []int
	recv   []int
	horiz  Time
	every  int        // send on every N-th tick (0 = never)
	boxes  []*Mailbox // per src shard, nil = no sends
	ticks  []int
}

type tickArg struct {
	n     *tickNet
	shard int
}

// tickMsg is a tickNet message: minted only while the sender's mailbox
// has no handed-back arg to reuse.
type tickMsg struct {
	n     *tickNet
	box   *Mailbox
	shard int // sender
}

func tickFire(a any) {
	ta := a.(*tickArg)
	n, s := ta.n, ta.shard
	n.fires[s]++
	n.ticks[s]++
	e := n.c.Engine(s)
	if b := n.boxes[s]; b != nil && n.every > 0 && n.ticks[s]%n.every == 0 {
		m, _ := b.Reuse().(*tickMsg)
		if m == nil {
			m = &tickMsg{n: n, box: b, shard: s}
		}
		b.Send(e.Now()+n.delay, tickRecv, m)
	}
	if next := e.Now() + n.period; next <= n.horiz {
		e.At2(next, tickFire, a)
	}
}

func tickRecv(a any) {
	m := a.(*tickMsg)
	m.n.recv[m.shard]++
	m.box.Return(m)
}

// setCoordParallel runs the rest of the test with the coordinator's
// worker path on or off, whatever the runtime's P count.
func setCoordParallel(t *testing.T, on bool) {
	old := coordParallel
	coordParallel = on
	t.Cleanup(func() { coordParallel = old })
}

// newTickNet wires shards in a one-directional ring (shard s sends to
// s+1) and seeds each shard's tick at t = period.
func newTickNet(c *Coordinator, period, delay, horiz Time, every int) *tickNet {
	n := &tickNet{
		c: c, period: period, delay: delay, horiz: horiz, every: every,
		fires: make([]int, c.Shards()),
		recv:  make([]int, c.Shards()),
		ticks: make([]int, c.Shards()),
		boxes: make([]*Mailbox, c.Shards()),
	}
	for s := 0; s < c.Shards(); s++ {
		if every > 0 {
			n.boxes[s] = c.Mailbox(s, (s+1)%c.Shards())
		}
		c.Engine(s).At2(period, tickFire, &tickArg{n: n, shard: s})
	}
	return n
}

// TestCoordinatorLookaheadMatrixWidensWindows pins the point of the
// per-pair matrix: the same model under the same default window runs
// identically but synchronizes in a small fraction of the rounds once
// the pairs' true (much larger) minimum delays are declared.
func TestCoordinatorLookaheadMatrixWidensWindows(t *testing.T) {
	const window = 10 * Nanosecond
	const period = 100 * Nanosecond
	const delay = 10 * Microsecond
	const horiz = Time(Millisecond)

	setCoordParallel(t, false)
	run := func(wide bool) (*tickNet, uint64) {
		c := NewCoordinator(3, window)
		if wide {
			for src := 0; src < 3; src++ {
				for dst := 0; dst < 3; dst++ {
					if src != dst {
						c.SetLookahead(src, dst, delay)
					}
				}
			}
		}
		n := newTickNet(c, period, delay, horiz, 4)
		c.RunUntil(horiz)
		return n, c.Windows()
	}

	narrow, nw := run(false)
	wide, ww := run(true)
	for s := range narrow.fires {
		if narrow.fires[s] != wide.fires[s] || narrow.recv[s] != wide.recv[s] {
			t.Fatalf("shard %d: narrow fired/recv %d/%d, wide %d/%d — lookahead changed behavior",
				s, narrow.fires[s], narrow.recv[s], wide.fires[s], wide.recv[s])
		}
		if narrow.recv[s] == 0 {
			t.Fatalf("shard %d received no cross-shard messages — model not exercising the matrix", s)
		}
	}
	if ww*10 > nw {
		t.Fatalf("wide lookahead used %d rounds, narrow %d — expected >=10x fewer barriers", ww, nw)
	}
}

// TestMailboxPerPairLookaheadViolation pins per-destination enforcement:
// with one destination's inbound pairs relaxed to a wide lookahead, a
// short-delay send to it panics while the same send to a default-window
// destination is legal — in the very same round.
func TestMailboxPerPairLookaheadViolation(t *testing.T) {
	c := NewCoordinator(3, 10*Nanosecond)
	c.SetLookahead(0, 1, Microsecond)
	c.SetLookahead(2, 1, Microsecond)
	wide := c.Mailbox(0, 1)
	narrow := c.Mailbox(0, 2)
	fired := false
	c.Engine(0).At2(0, func(any) {
		fired = true
		narrow.Send(500*Nanosecond, nopEvent, nil) // >= 10ns pair bound: fine
		defer func() {
			if recover() == nil {
				t.Error("500ns send into a 1us-lookahead destination did not panic")
			}
		}()
		wide.Send(500*Nanosecond, nopEvent, nil) // destination round ends at 1us
	}, nil)
	c.RunUntil(2 * Microsecond)
	if !fired {
		t.Fatal("probe event never fired")
	}
}

// TestCoordinatorIdleJumpUnevenShards pins the NextAt skip with uneven
// occupancy: one shard busy early, the other holding only a far-future
// event. The gap must be crossed in a handful of rounds, not
// gap/window barriers.
func TestCoordinatorIdleJumpUnevenShards(t *testing.T) {
	const window = 10 * Nanosecond
	c := NewCoordinator(2, window)
	setCoordParallel(t, false)
	var lateFired, earlyFires int
	// Shard 0: a short burst of early events, then silence.
	for i := 1; i <= 5; i++ {
		c.Engine(0).At2(Time(i)*100*Nanosecond, func(any) { earlyFires++ }, nil)
	}
	// Shard 1: nothing until 2ms — 200k windows away at 10ns.
	c.Engine(1).At2(2*Millisecond, func(any) { lateFired = 1 }, nil)
	c.RunUntil(3 * Millisecond)
	if earlyFires != 5 || lateFired != 1 {
		t.Fatalf("fired %d early + %d late events, want 5 + 1", earlyFires, lateFired)
	}
	if w := c.Windows(); w > 100 {
		t.Fatalf("%d rounds to cross an idle 2ms gap — idle jump not engaging", w)
	}
}

// TestCoordinatorZeroAllocWindows pins the steady-state allocation
// contract of the round loop: frontier bookkeeping, mailbox buffers,
// the merge scratch (both the single-source fast path and the
// multi-source merge), bulk injection, and the message args handed back
// and reused must all run garbage-free once warm — including
// destinations that alternate empty and busy, which is exactly the
// sequence that used to regrow the scratch.
func TestCoordinatorZeroAllocWindows(t *testing.T) {
	const window = 100 * Nanosecond
	c := NewCoordinator(3, window)
	setCoordParallel(t, false)
	n := &tickNet{
		c: c, period: 150 * Nanosecond, delay: window, horiz: MaxTime,
		fires: make([]int, 3), recv: make([]int, 3), ticks: make([]int, 3),
		boxes: make([]*Mailbox, 3),
	}
	// Shards 1 and 2 both feed shard 0 (multi-source merge); shard 0
	// feeds shard 1 (single-source fast path) on every other tick only,
	// so destination 1 alternates empty and busy.
	n.boxes[1] = c.Mailbox(1, 0)
	n.boxes[2] = c.Mailbox(2, 0)
	n.boxes[0] = c.Mailbox(0, 1)
	n.every = 2
	args := make([]*tickArg, 3)
	for s := 0; s < 3; s++ {
		args[s] = &tickArg{n: n, shard: s}
	}
	n.ticks[0] = 1 // desynchronize shard 0's send parity from 1 and 2
	for s := 0; s < 3; s++ {
		c.Engine(s).At2(n.period, tickFire, args[s])
	}
	// Warm pools, buffers, and scratch: a hundred rounds, so every
	// mailbox buffer and the merge scratch have met their peak. The
	// engines' wheel buckets are event lists, with no storage to warm.
	c.RunUntil(10 * Microsecond)
	if allocs := testing.AllocsPerRun(50, func() {
		c.RunFor(10 * window)
	}); allocs != 0 {
		t.Fatalf("steady-state rounds allocate %.1f per RunFor, want 0", allocs)
	}
	for s := 0; s < 3; s++ {
		if n.fires[s] == 0 {
			t.Fatalf("shard %d never ticked", s)
		}
	}
	if n.recv[1] == 0 || n.recv[2] == 0 {
		t.Fatal("cross-shard paths not exercised")
	}
}

// TestMailboxHandsArgsBack runs two shards that message each other on
// the worker path. Every message's arg is drawn with Reuse, minted only
// when none is left, and handed back with Return by its receiver. A
// reused arg must be one its receiver handed back, never one still in
// flight, and once the run drains every arg ever minted must be back on
// its sender's side exactly once. An arg's state is written by the
// receiver and read by the sender, so under -race the barrier must order
// the two.
func TestMailboxHandsArgsBack(t *testing.T) {
	setCoordParallel(t, true)
	const window = 10 * Nanosecond
	const horiz = 20 * Microsecond
	type arg struct {
		id       int
		inFlight bool
	}
	c := NewCoordinator(2, window)
	boxes := [2]*Mailbox{c.Mailbox(0, 1), c.Mailbox(1, 0)}
	var (
		minted [2]int // per sender shard
		sent   [2]int
		reused [2]int // reuses of an arg still in flight, per sender
		recv   [2]int // per receiver shard
		stale  [2]int // arrivals of an arg not in flight, per receiver
	)
	for s := 0; s < 2; s++ {
		e, box, d := c.Engine(s), boxes[s], 1-s
		deliver := func(a any) {
			x := a.(*arg)
			if !x.inFlight {
				stale[d]++
			}
			recv[d]++
			x.inFlight = false
			box.Return(x)
		}
		var tick func()
		tick = func() {
			// Four messages a tick, delays one to four windows: some land in
			// the next round, some later, some tie.
			for k := 0; k < 4; k++ {
				x, _ := box.Reuse().(*arg)
				if x == nil {
					x = &arg{id: minted[s]}
					minted[s]++
				} else if x.inFlight {
					reused[s]++
				}
				x.inFlight = true
				sent[s]++
				box.Send(e.Now()+Time(k+1)*window, deliver, x)
			}
			if next := e.Now() + 7*Nanosecond; next <= horiz {
				e.At(next, tick)
			}
		}
		e.At(Time(s+1)*Nanosecond, tick)
	}
	c.Run()
	for s := 0; s < 2; s++ {
		if reused[s] != 0 || stale[1-s] != 0 {
			t.Fatalf("shard %d reused %d args still in flight; shard %d received %d args not in flight",
				s, reused[s], 1-s, stale[1-s])
		}
		if recv[1-s] != sent[s] {
			t.Fatalf("shard %d sent %d messages, shard %d received %d", s, sent[s], 1-s, recv[1-s])
		}
		if minted[s]*10 > sent[s] {
			t.Fatalf("shard %d minted %d args for %d messages: handed-back args are not being reused",
				s, minted[s], sent[s])
		}
		seen := make([]bool, minted[s])
		for a := boxes[s].Reuse(); a != nil; a = boxes[s].Reuse() {
			x := a.(*arg)
			if seen[x.id] {
				t.Fatalf("shard %d: arg %d is on its side twice", s, x.id)
			}
			seen[x.id] = true
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("shard %d: arg %d of %d never came back", s, id, minted[s])
			}
		}
	}
}

// runAPI is the run API a bare engine and a coordinator share.
type runAPI interface {
	Run()
	RunUntil(Time)
	RunFor(Time)
	Now() Time
}

// TestCoordinatorOneShardMatchesEngine plays call sequences the fuzzer
// never makes — runs resumed after a drain, a Stop inside Run and inside
// RunUntil, RunUntil(MaxTime) — on a bare engine and on a one-shard
// coordinator, and requires the same events at the same times and the
// same clock after every call.
func TestCoordinatorOneShardMatchesEngine(t *testing.T) {
	type script func(e *Engine, r runAPI, fire func(id int) func(), call func(string, func()))
	for _, tc := range []struct {
		name string
		play script
	}{
		{"run, run for, new work, run", func(e *Engine, r runAPI, fire func(int) func(), call func(string, func())) {
			e.At(5*Nanosecond, fire(1))
			e.At(7*Nanosecond, fire(2))
			call("Run", r.Run)
			call("RunFor(100ns)", func() { r.RunFor(100 * Nanosecond) })
			e.After(3*Nanosecond, fire(3))
			e.Go("p", func(p *Proc) {
				fire(4)()
				p.Sleep(2 * Nanosecond)
				fire(5)()
			})
			call("Run", r.Run)
			e.After(0, fire(6))
			call("RunFor(0)", func() { r.RunFor(0) })
			call("Run", r.Run)
			e.After(Nanosecond, func() { fire(7)(); e.Stop() })
			e.After(2*Nanosecond, fire(8))
			call("RunFor(5ns)", func() { r.RunFor(5 * Nanosecond) })
			call("RunFor(5ns)", func() { r.RunFor(5 * Nanosecond) })
		}},
		{"stop inside run", func(e *Engine, r runAPI, fire func(int) func(), call func(string, func())) {
			e.At(1*Nanosecond, fire(1))
			e.At(2*Nanosecond, func() { fire(2)(); e.Stop() })
			e.At(2*Nanosecond, fire(3)) // a tie left behind by the stop
			e.At(4*Nanosecond, fire(4))
			e.Go("p", func(p *Proc) {
				p.Sleep(6 * Nanosecond)
				fire(5)()
				e.Stop()
				p.Sleep(Nanosecond)
				fire(6)()
			})
			call("Run", r.Run)
			call("Run", r.Run)
			call("Run", r.Run)
			call("RunFor(10ns)", func() { r.RunFor(10 * Nanosecond) })
		}},
		{"stop inside run until", func(e *Engine, r runAPI, fire func(int) func(), call func(string, func())) {
			e.At(1*Nanosecond, fire(1))
			e.At(3*Nanosecond, func() { fire(2)(); e.Stop() })
			e.At(3*Nanosecond, fire(3))
			e.At(4*Nanosecond, fire(4))
			e.At(9*Nanosecond, func() { fire(5)(); e.Stop() })
			call("RunUntil(10ns)", func() { r.RunUntil(10 * Nanosecond) })
			call("RunUntil(2ns)", func() { r.RunUntil(2 * Nanosecond) })
			call("RunFor(0)", func() { r.RunFor(0) })
			call("RunFor(1ns)", func() { r.RunFor(Nanosecond) })
			call("RunUntil(20ns)", func() { r.RunUntil(20 * Nanosecond) })
			call("RunUntil(20ns)", func() { r.RunUntil(20 * Nanosecond) })
			call("Run", r.Run)
		}},
		{"run until max time", func(e *Engine, r runAPI, fire func(int) func(), call func(string, func())) {
			e.At(5*Nanosecond, fire(1))
			e.At(MaxTime, fire(2))
			call("Run", r.Run)
			call("RunUntil(MaxTime)", func() { r.RunUntil(MaxTime) })
			e.At(MaxTime, fire(3))
			call("RunUntil(MaxTime)", func() { r.RunUntil(MaxTime) })
			call("RunFor(1ns)", func() { r.RunFor(Nanosecond) })
			call("Run", r.Run)
		}},
	} {
		play := func(e *Engine, r runAPI) []string {
			var log []string
			fire := func(id int) func() {
				return func() { log = append(log, fmt.Sprintf("fire %d at %d ps", id, e.Now())) }
			}
			call := func(name string, run func()) {
				run()
				log = append(log, fmt.Sprintf("%s: now %d ps, engine %d ps, pending %d", name, r.Now(), e.Now(), e.Pending()))
			}
			tc.play(e, r, fire, call)
			return log
		}
		eng := NewEngine()
		want := play(eng, eng)
		c := NewCoordinator(1, Nanosecond)
		got := play(c.Engine(0), c)
		if len(got) != len(want) {
			t.Fatalf("%s: coordinator logged %d lines, engine %d:\n%v\nwant\n%v", tc.name, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: line %d: coordinator %q, engine %q", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestCoordinatorRunUntilMaxTime pins that RunUntil(MaxTime) returns at
// every shard count, with every engine drained and every clock at
// MaxTime as Engine.RunUntil(MaxTime) leaves it — both from a fresh
// coordinator and after a Run, which leaves a multi-shard coordinator's
// clocks at the last round's horizon.
func TestCoordinatorRunUntilMaxTime(t *testing.T) {
	const window = 10 * Nanosecond
	for _, shards := range []int{2, 3} {
		for _, runFirst := range []bool{false, true} {
			c := NewCoordinator(shards, window)
			var fired [2]int // one counter per shard: the shards may run in parallel
			c.Engine(0).At(5*Nanosecond, func() { fired[0]++ })
			c.Engine(1).At(7*Nanosecond, func() { fired[1]++ })
			if runFirst {
				c.Run()
				for i := 0; i < shards; i++ {
					if got := c.Engine(i).Now(); got != window-1 {
						t.Fatalf("%d shards: after Run, engine %d clock %v, want %v", shards, i, got, window-1)
					}
				}
				if c.Now() != window-1 {
					t.Fatalf("%d shards: after Run, coordinator at %v, want %v", shards, c.Now(), window-1)
				}
			}
			c.RunUntil(MaxTime)
			if fired != [2]int{1, 1} {
				t.Fatalf("%d shards: shards 0 and 1 fired %v events, want one each", shards, fired)
			}
			for i := 0; i < shards; i++ {
				if e := c.Engine(i); e.Pending() != 0 || e.Now() != MaxTime {
					t.Fatalf("%d shards (run first %v): engine %d has %d pending, clock %v; want drained at MaxTime",
						shards, runFirst, i, e.Pending(), e.Now())
				}
			}
			if c.Now() != MaxTime {
				t.Fatalf("%d shards: coordinator at %v, want MaxTime", shards, c.Now())
			}
		}
	}
}

// TestCoordinatorStopAtBarrier pins Stop across shards: it ends Run at
// the barrier of the round it fired in, and the next Run resumes the
// stopped shard from its clock. The frontier must stay at that clock,
// not at the round's horizon: the event tied with the stop sends to
// shard 1 with exactly the lookahead, and shard 1 may not have run past
// that message when it arrives. Both execution paths run it, so -race
// sees the stop flag cross the worker barrier.
func TestCoordinatorStopAtBarrier(t *testing.T) {
	const window = 10 * Nanosecond
	for _, parallel := range []bool{false, true} {
		setCoordParallel(t, parallel)
		c := NewCoordinator(2, window)
		e0, e1 := c.Engine(0), c.Engine(1)
		var got []Time // shard 1's events, in fire order
		rec := func(any) { got = append(got, e1.Now()) }
		box := c.Mailbox(0, 1)
		send := func() { box.Send(e0.Now()+window, rec, nil) }
		e0.At(Nanosecond, e0.Stop)
		e0.At(Nanosecond, send)
		e0.At(3*Nanosecond, send)
		for _, at := range []Time{5, 12, 14} {
			e1.At2(at*Nanosecond, rec, nil)
		}
		c.Run()
		if e0.Now() != Nanosecond || e0.Pending() != 2 || len(got) != 1 {
			t.Fatalf("parallel %v, after the stop: shard 0 at %v with %d pending, shard 1 fired at %v; want 1ns, 2 pending, [5ns]",
				parallel, e0.Now(), e0.Pending(), got)
		}
		c.Run()
		want := []Time{5 * Nanosecond, 11 * Nanosecond, 12 * Nanosecond, 13 * Nanosecond, 14 * Nanosecond}
		if !slices.Equal(got, want) {
			t.Fatalf("parallel %v: shard 1 fired at %v, want %v", parallel, got, want)
		}
	}
}
