package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// heapEngine preserves the pre-ladder container/heap executive verbatim
// (modulo the pieces irrelevant to ordering). It exists as the reference
// implementation for the equivalence property test and as the baseline
// for BenchmarkEngineScheduleFireHeap, so the ladder queue's speedup and
// exact-order claims stay checkable in-repo.
type heapEngine struct {
	now   Time
	queue heapEventQueue
	seq   uint64
}

type heapEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type heapEventQueue []*heapEvent

func (q heapEventQueue) Len() int { return len(q) }
func (q heapEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapEventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *heapEventQueue) Push(x interface{}) { *q = append(*q, x.(*heapEvent)) }
func (q *heapEventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (e *heapEngine) Now() Time { return e.now }

func (e *heapEngine) At(t Time, fn func()) {
	if t < e.now {
		panic("heapEngine: scheduling in the past")
	}
	e.seq++
	heap.Push(&e.queue, &heapEvent{at: t, seq: e.seq, fn: fn})
}

func (e *heapEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*heapEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *heapEngine) Run() {
	for e.Step() {
	}
}

// scheduler is the least common denominator the trace driver needs.
type scheduler interface {
	Now() Time
	At(Time, func())
}

// driveTrace seeds one cascading schedule onto s, appending each fired
// event's id to *order as the run progresses. Every decision comes from
// pick (a value in [0, n)), so two schedulers given identical pickers
// see the identical trace as long as they fire in the same order; the
// delay mix deliberately covers same-instant ties (0), sub-bucket (ps),
// in-window (ns..hundreds of ns), beyond-window (multi-µs, exercising
// the far heap and window jumps), and ms-scale outliers. budget caps the
// events scheduled.
func driveTrace(s scheduler, pick func(n int) int, budget int, order *[]int) {
	next := 0
	var spawn func() func()
	spawn = func() func() {
		id := next
		next++
		return func() {
			*order = append(*order, id)
			kids := pick(3)
			for k := 0; k < kids && budget > 0; k++ {
				budget--
				var d Time
				switch pick(6) {
				case 0:
					d = 0
				case 1:
					d = Time(pick(1024)) // sub-bucket
				case 2, 3:
					d = Time(pick(500)) * Nanosecond
				case 4:
					d = Time(1+pick(10)) * Microsecond
				default:
					d = Time(1+pick(3)) * Millisecond
				}
				s.At(s.Now()+d, spawn())
			}
		}
	}
	for i := 0; i < 64; i++ {
		budget--
		s.At(Time(pick(200))*Nanosecond, spawn())
	}
}

// RunUntil is Engine.RunUntil on the reference executive: fire every event
// at or before t, then set the clock to t.
func (e *heapEngine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// TestLadderMatchesHeapReference drives the ladder engine and the old
// heap executive from the same schedule trace and requires the identical
// fire order — the determinism contract that keeps same-seed snapshots
// byte-identical across the scheduler swap.
func TestLadderMatchesHeapReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		var gotL, gotH []int
		ladder := NewEngine()
		driveTrace(ladder, NewRNG(seed).Intn, 4000, &gotL)
		ladder.Run()

		ref := &heapEngine{}
		driveTrace(ref, NewRNG(seed).Intn, 4000, &gotH)
		ref.Run()

		sameOrder(t, fmt.Sprintf("seed %d", seed), gotL, gotH)
		if ladder.Now() != ref.Now() {
			t.Fatalf("seed %d: final clocks differ: %v vs %v", seed, ladder.Now(), ref.Now())
		}
	}
}

// TestLadderMatchesHeapUnderRunUntil checks the peek/boundary path too:
// both executives advanced in fixed RunUntil increments must fire the
// same prefix at every boundary.
func TestLadderMatchesHeapUnderRunUntil(t *testing.T) {
	var gotL, gotH []int
	ladder := NewEngine()
	driveTrace(ladder, NewRNG(99).Intn, 4000, &gotL)
	ref := &heapEngine{}
	driveTrace(ref, NewRNG(99).Intn, 4000, &gotH)

	for until := 100 * Nanosecond; ladder.Pending() > 0 || len(ref.queue) > 0; until += 137 * Nanosecond {
		ladder.RunUntil(until)
		ref.RunUntil(until)
		if len(gotL) != len(gotH) {
			t.Fatalf("until %v: ladder fired %d, heap fired %d", until, len(gotL), len(gotH))
		}
	}
	sameOrder(t, "stepped", gotL, gotH)
}

// sameOrder fails the test unless the ladder and heap executives fired
// the same events in the same order.
func sameOrder(t *testing.T, label string, gotL, gotH []int) {
	t.Helper()
	if len(gotL) != len(gotH) {
		t.Fatalf("%s: ladder fired %d events, heap %d", label, len(gotL), len(gotH))
	}
	for i := range gotL {
		if gotL[i] != gotH[i] {
			t.Fatalf("%s: fire order diverges at event %d: ladder=%d heap=%d", label, i, gotL[i], gotH[i])
		}
	}
}

// fuzzPicker draws decisions from the fuzzer's bytes (one per decision
// below 256 choices, two above), then from an RNG seeded by the fuzzer,
// so a short input still builds a full schedule.
func fuzzPicker(seed uint64, data []byte) func(n int) int {
	rng := NewRNG(seed)
	return func(n int) int {
		switch {
		case n <= 256 && len(data) >= 1:
			v := int(data[0])
			data = data[1:]
			return v % n
		case len(data) >= 2:
			v := int(data[0]) | int(data[1])<<8
			data = data[2:]
			return v % n
		}
		return rng.Intn(n)
	}
}

// FuzzEngineOrder drives the ladder engine and the heap reference from
// the same fuzzer-chosen schedule (driveTrace's delay mix: After(0)
// cascades, sub-bucket and in-window delays, migration from the far
// tier) and requires the same fire order and the same final clock. A
// zero step runs both to completion with Run; otherwise both advance in
// RunUntil increments of step%5µs+1 ps, skipping empty stretches on the
// same grid, and must have fired the same prefix at every boundary.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, step uint32, data []byte) {
		var gotL, gotH []int
		ladder := NewEngine()
		driveTrace(ladder, fuzzPicker(seed, data), 600, &gotL)
		ref := &heapEngine{}
		driveTrace(ref, fuzzPicker(seed, data), 600, &gotH)

		if step == 0 {
			ladder.Run()
			ref.Run()
		} else {
			d := Time(step%uint32(5*Microsecond)) + 1
			for until := Time(0); ladder.Pending() > 0 || len(ref.queue) > 0; {
				until += d
				if len(ref.queue) > 0 && ref.queue[0].at > until {
					until += (ref.queue[0].at - until) / d * d
				}
				ladder.RunUntil(until)
				ref.RunUntil(until)
				if len(gotL) != len(gotH) {
					t.Fatalf("until %v: ladder fired %d, heap fired %d", until, len(gotL), len(gotH))
				}
			}
		}
		sameOrder(t, "fuzz", gotL, gotH)
		if ladder.Now() != ref.Now() {
			t.Fatalf("final clocks differ: ladder %v, heap %v", ladder.Now(), ref.Now())
		}
	})
}

// ---------------------------------------------------------------------
// Parallel-vs-serial equivalence: the conservative PDES coordinator
// (shard.go) against a single engine running the identical model.
// ---------------------------------------------------------------------

// shardNet is a synthetic multi-domain model that can run either on one
// Engine (all domains share it) or on a Coordinator (one engine per
// domain, ring-topology mailboxes). Each domain runs pseudo-random
// local event cascades and sends messages to the next domain in the
// ring with delay >= the lookahead window. Local events land on odd
// picoseconds and cross-domain messages on even ones, so the two
// classes can never tie at a destination; combined with single-source
// FIFO delivery per ring edge, that makes single-engine and sharded
// execution provably identical (see the Coordinator doc comment), which
// this harness then checks event by event.
type shardNet struct {
	domains int
	window  Time
	sched   []domainSched
	rngs    []*RNG
	budget  []int
	nextID  []int
	trace   [][]shardRec
}

type shardRec struct {
	at Time
	id int
}

// domainSched abstracts "schedule in my own domain" vs "schedule in the
// next domain over" for the two execution modes.
type domainSched interface {
	now() Time
	local(at Time, fn func(any), arg any)
	remote(at Time, fn func(any), arg any)
}

type serialSched struct {
	eng *Engine
}

func (s serialSched) now() Time                             { return s.eng.Now() }
func (s serialSched) local(at Time, fn func(any), arg any)  { s.eng.At2(at, fn, arg) }
func (s serialSched) remote(at Time, fn func(any), arg any) { s.eng.At2(at, fn, arg) }

type shardSched struct {
	eng *Engine
	box *Mailbox
}

func (s shardSched) now() Time                             { return s.eng.Now() }
func (s shardSched) local(at Time, fn func(any), arg any)  { s.eng.At2(at, fn, arg) }
func (s shardSched) remote(at Time, fn func(any), arg any) { s.box.Send(at, fn, arg) }

type shardEvt struct {
	n   *shardNet
	dom int
	id  int
}

func shardFire(a any) {
	ev := a.(*shardEvt)
	ev.n.fire(ev.dom, ev.id)
}

func (n *shardNet) fire(d, id int) {
	now := n.sched[d].now()
	n.trace[d] = append(n.trace[d], shardRec{at: now, id: id})
	rng := n.rngs[d]
	kids := rng.Intn(3)
	for k := 0; k < kids && n.budget[d] > 0; k++ {
		n.budget[d]--
		var delta Time
		switch rng.Intn(4) {
		case 0:
			delta = Time(rng.Intn(2048)) // sub-bucket, including same-instant
		case 1:
			delta = Time(rng.Intn(300)) * Nanosecond
		case 2:
			delta = Time(1+rng.Intn(5)) * Microsecond
		default:
			delta = Time(1+rng.Intn(2)) * Millisecond
		}
		n.nextID[d]++
		n.sched[d].local((now+delta)|1, shardFire,
			&shardEvt{n: n, dom: d, id: n.nextID[d]})
	}
	if n.budget[d] > 0 && rng.Intn(3) == 0 {
		n.budget[d]--
		dst := (d + 1) % n.domains
		delta := n.window + Time(rng.Intn(4096))
		n.nextID[d]++
		n.sched[d].remote((now+delta+1)&^1, shardFire,
			&shardEvt{n: n, dom: dst, id: n.nextID[d]*1000 + d})
	}
}

func newShardNet(domains int, window Time, seed uint64) *shardNet {
	n := &shardNet{
		domains: domains,
		window:  window,
		sched:   make([]domainSched, domains),
		rngs:    make([]*RNG, domains),
		budget:  make([]int, domains),
		nextID:  make([]int, domains),
		trace:   make([][]shardRec, domains),
	}
	for d := 0; d < domains; d++ {
		n.rngs[d] = NewRNG(seed).Fork(uint64(d))
		n.budget[d] = 600
	}
	return n
}

// start seeds each domain's initial events; must run after n.sched is
// populated, in domain order so serial and sharded schedule identically.
func (n *shardNet) start() {
	for d := 0; d < n.domains; d++ {
		for i := 0; i < 8; i++ {
			n.nextID[d]++
			at := Time(n.rngs[d].Intn(400))*Nanosecond | 1
			n.sched[d].local(at, shardFire, &shardEvt{n: n, dom: d, id: n.nextID[d]})
		}
	}
}

func runShardNetSerial(domains int, window Time, seed uint64) *shardNet {
	n := newShardNet(domains, window, seed)
	eng := NewEngine()
	for d := 0; d < domains; d++ {
		n.sched[d] = serialSched{eng: eng}
	}
	n.start()
	eng.Run()
	return n
}

func runShardNetSharded(domains int, window Time, seed uint64, sequential bool) *shardNet {
	n := newShardNet(domains, window, seed)
	c := NewCoordinator(domains, window)
	c.Sequential = sequential
	if !sequential {
		// Force the worker-barrier path even on a single-P runtime (where
		// coordParallel would fall back to sequential): this test is the
		// proof that the two paths are byte-identical, so it must actually
		// run both.
		defer func(old bool) { coordParallel = old }(coordParallel)
		coordParallel = true
	}
	for d := 0; d < domains; d++ {
		n.sched[d] = shardSched{eng: c.Engine(d), box: c.Mailbox(d, (d+1)%domains)}
	}
	n.start()
	c.Run()
	return n
}

func diffShardNets(t *testing.T, label string, want, got *shardNet) {
	t.Helper()
	for d := 0; d < want.domains; d++ {
		if len(want.trace[d]) != len(got.trace[d]) {
			t.Fatalf("%s: domain %d fired %d events, want %d",
				label, d, len(got.trace[d]), len(want.trace[d]))
		}
		for i, w := range want.trace[d] {
			if g := got.trace[d][i]; g != w {
				t.Fatalf("%s: domain %d diverges at event %d: got {at:%v id:%d}, want {at:%v id:%d}",
					label, d, i, g.at, g.id, w.at, w.id)
			}
		}
	}
}

// TestCoordinatorMatchesSerialEngine is the PDES determinism contract:
// the same model run (a) on a single engine, (b) under the coordinator
// with shards advanced sequentially, and (c) under the coordinator with
// one goroutine per shard must produce the identical per-domain event
// trace, for every seed.
func TestCoordinatorMatchesSerialEngine(t *testing.T) {
	const domains = 4
	const window = 10 * Nanosecond
	for seed := uint64(1); seed <= 12; seed++ {
		serial := runShardNetSerial(domains, window, seed)
		seq := runShardNetSharded(domains, window, seed, true)
		par := runShardNetSharded(domains, window, seed, false)
		diffShardNets(t, "sequential coordinator vs serial", serial, seq)
		diffShardNets(t, "parallel coordinator vs serial", serial, par)
		total := 0
		for d := range serial.trace {
			total += len(serial.trace[d])
		}
		if total < 100 {
			t.Fatalf("seed %d: trace suspiciously small (%d events) — model not exercising the barrier", seed, total)
		}
	}
}

// TestCoordinatorRunUntilBoundaries drives the sharded model in fixed
// RunUntil increments (exercising partial windows and the idle jump)
// and requires the same final trace as one uninterrupted serial run.
func TestCoordinatorRunUntilBoundaries(t *testing.T) {
	const domains = 3
	const window = 10 * Nanosecond
	serial := runShardNetSerial(domains, window, 77)

	n := newShardNet(domains, window, 77)
	c := NewCoordinator(domains, window)
	for d := 0; d < domains; d++ {
		n.sched[d] = shardSched{eng: c.Engine(d), box: c.Mailbox(d, (d+1)%domains)}
	}
	n.start()
	for until := 537 * Nanosecond; ; until += 3*Microsecond + 537*Nanosecond {
		c.RunUntil(until)
		idle := true
		for d := 0; d < domains; d++ {
			if c.Engine(d).Pending() > 0 {
				idle = false
				break
			}
		}
		if idle {
			break
		}
	}
	diffShardNets(t, "stepped coordinator vs serial", serial, n)
	for d := 0; d < domains; d++ {
		if got := c.Engine(d).Now(); got != c.Now() {
			t.Fatalf("domain %d clock %v != coordinator horizon %v", d, got, c.Now())
		}
	}
}

// TestMailboxLookaheadViolation pins the conservative-sync guard: a
// cross-shard message inside the current window must panic, not
// silently reorder time.
func TestMailboxLookaheadViolation(t *testing.T) {
	c := NewCoordinator(2, 100*Nanosecond)
	box := c.Mailbox(0, 1)
	c.Engine(0).At2(50*Nanosecond, func(any) {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-shard send did not panic")
			}
		}()
		box.Send(60*Nanosecond, nopEvent, nil) // violates 100ns lookahead
	}, nil)
	c.RunUntil(200 * Nanosecond)
}

func nopEvent(any) {}

// TestEngineZeroAllocSteadyState pins the pool + closure-free contract:
// once warm, scheduling and firing through At2/Step must not allocate.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.At2(e.Now()+Time(i)*Nanosecond, nopEvent, nil)
	}
	e.Run()
	if n := testing.AllocsPerRun(2000, func() {
		e.At2(e.Now()+Nanosecond, nopEvent, nil)
		e.Step()
	}); n != 0 {
		t.Fatalf("At2+Step allocates %.1f per event in steady state, want 0", n)
	}
}

// TestEngineZeroAllocReusedClosure: the closure API is also allocation-
// free when the caller hoists the closure out of the loop (the event
// object itself is pooled).
func TestEngineZeroAllocReusedClosure(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Nanosecond, fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(2000, func() {
		e.After(Nanosecond, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("At+Step with a hoisted closure allocates %.1f per event, want 0", n)
	}
}

// TestEngineFarTierOrdering exercises the window jump directly: sparse
// events far beyond the ladder window must still fire in order.
func TestEngineFarTierOrdering(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	times := []Time{
		5 * Millisecond, 3 * Microsecond, 40 * Second, 2 * Microsecond,
		7 * Nanosecond, 5*Millisecond + 1, 1100 * Nanosecond,
	}
	for _, at := range times {
		e.At(at, rec)
	}
	e.Run()
	if len(got) != len(times) {
		t.Fatalf("fired %d of %d", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if e.Now() != 40*Second {
		t.Fatalf("final clock %v, want 40s", e.Now())
	}
}
