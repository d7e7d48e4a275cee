package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Engine is a discrete-event simulation executive. Events fire in
// timestamp order; ties are broken by scheduling order, which makes every
// run fully deterministic.
//
// Engine is not safe for concurrent use. Processes started with Go run on
// goroutines but are resumed strictly one at a time (see proc.go), so
// model code never needs locks. Parallelism across *simulations* (e.g.
// fccbench -seeds/-parallel) is safe because each seed owns a private
// Engine.
//
// # Scheduler structure
//
// The pending set is a two-tier ladder queue, sized for the event
// population a credit-based flit-level fabric generates: an enormous rate
// of short-horizon events (serialization, propagation, credit returns —
// all within tens of ns) plus a thin tail of far-future timers.
//
//   - near tier: a ring of numBuckets buckets, each bucketWidth of
//     virtual time wide, spanning a ~1µs window ahead of the clock.
//     Enqueue appends to the bucket (O(1)); a bucket is sorted once, by
//     (at, seq), at the moment it becomes the active dispatch list. An
//     occupancy bitmap makes "find the next non-empty bucket" a few word
//     scans.
//   - far tier: a plain binary min-heap for events beyond the window.
//     As the window slides forward, far events migrate into buckets.
//
// Events are drawn from a per-engine free list and recycled after firing,
// so steady-state scheduling performs zero heap allocations when the
// closure-free API (At2/After2) is used. The (at, seq) tie-break order is
// exactly the order the previous container/heap implementation produced,
// so same-seed runs are byte-identical across the two schedulers (see
// TestLadderMatchesHeapReference).
type Engine struct {
	now     Time
	seq     uint64
	running bool
	stopped bool

	// cur is the active dispatch list: all pending events with at <
	// curEnd, sorted ascending by (at, seq), consumed from curIdx. A
	// same-instant insert (After(0) from a firing event) binary-inserts
	// into the unconsumed suffix. curEnd is always bucketWidth-aligned.
	cur    []*event
	curIdx int
	curEnd Time

	// buckets hold events with curEnd <= at < curEnd+windowSpan. The
	// slot for time t is (t>>bucketShift)&bucketMask: the window is
	// exactly one revolution long, so in-window slots never alias.
	buckets [numBuckets][]*event
	occ     [numBuckets / 64]uint64
	wheeln  int

	far farHeap

	// free is the event pool. Fired events are scrubbed (fn/afn/arg
	// nil'd so pooled events never pin model objects) and recycled.
	free *event

	// procs counts live processes so RunUntilIdle can detect deadlock
	// (live processes but an empty event queue).
	procs int

	// mainHand parks the Run caller while a process holds the dispatch
	// token; freeRunner pools runner goroutines for reuse across
	// processes (drained when Run returns). driveLimit is the active
	// Run/RunUntil horizon, read by takeProcEvent on process goroutines.
	mainHand   handoff
	freeRunner *runner
	driveLimit Time
	// runnersMinted counts runner goroutine constructions, so tests can
	// pin the free list's reuse guarantee.
	runnersMinted int

	// EventLimit, when >0, aborts Run with a panic after that many events.
	// It is a guard against accidental infinite simulations in tests.
	EventLimit uint64
	fired      uint64
}

// Ladder geometry. 1.024ns buckets over a ~1.05µs window: per-hop fabric
// events (serialization of a 68B flit ≈ 2ns, propagation ≈ 10ns, credit
// return ≈ tens of ns) land a handful of buckets ahead, while timeouts
// and epoch timers overflow to the far heap.
const (
	bucketShift = 10
	bucketWidth = Time(1) << bucketShift
	numBuckets  = 1 << 10
	bucketMask  = numBuckets - 1
	windowSpan  = Time(numBuckets) << bucketShift
)

// Event kinds. kindProc events resume a process (arg holds the *Proc);
// they are recognized by the dispatch core so a pausing process can
// consume the next resume directly instead of bouncing through the Run
// caller's goroutine (see proc.go "Handoff structure").
const (
	kindFn uint8 = iota
	kindAfn
	kindProc
)

// event is one scheduled callback. kind selects the form: fn is the
// closure form (At/After), afn+arg the closure-free form (At2/After2),
// and kindProc stores the process to resume in arg. next links the free
// list.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	afn  func(any)
	arg  any
	kind uint8
	next *event
}

func eventCmp(a, b *event) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1 // seqs are unique; equality is impossible
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{curEnd: bucketWidth, mainHand: newHandoff()}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int {
	return len(e.cur) - e.curIdx + e.wheeln + len(e.far)
}

// alloc takes an event from the pool, or mints one.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// release scrubs a fired event and returns it to the pool. fn, afn, and
// arg are nil'd here so a pooled event never pins the model objects its
// last callback captured — without this, a long run's pool would keep an
// arbitrary slice of dead simulation state reachable.
func (e *Engine) release(ev *event) {
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a model bug, and silently clamping would hide it.
//
// The closure fn is the convenient form; per-call it costs whatever the
// closure captures. Hot paths that fire millions of events should use
// At2/After2, which schedule with zero steady-state allocations.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if t > MaxTime {
		panic(fmt.Sprintf("sim: scheduling event at %d ps, beyond MaxTime (%d ps); use SaturatingAdd for relative timers", int64(t), int64(MaxTime)))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.kind = t, e.seq, fn, kindFn
	e.enqueue(ev)
}

// After schedules fn to run d after the current time, saturating at
// MaxTime (see SaturatingAdd). Negative d panics.
func (e *Engine) After(d Time, fn func()) { e.At(SaturatingAdd(e.now, d), fn) }

// At2 is the closure-free fast path: fn must be a static function (or a
// pre-built closure reused across calls) and receives arg when the event
// fires. Because the event itself comes from the engine's pool and a
// pointer stored in an interface does not allocate, steady-state
// scheduling through At2 performs zero heap allocations.
//
// It shares the (at, seq) ordering stream with At, so mixing the two
// APIs preserves deterministic tie-break order.
func (e *Engine) At2(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if t > MaxTime {
		panic(fmt.Sprintf("sim: scheduling event at %d ps, beyond MaxTime (%d ps); use SaturatingAdd for relative timers", int64(t), int64(MaxTime)))
	}
	if fn == nil {
		panic("sim: At2 with nil fn")
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.afn, ev.arg, ev.kind = t, e.seq, fn, arg, kindAfn
	e.enqueue(ev)
}

// After2 schedules fn(arg) to run d after the current time, allocation-
// free and saturating at MaxTime (see SaturatingAdd). Negative d panics
// (via the past check in At2).
func (e *Engine) After2(d Time, fn func(any), arg any) { e.At2(SaturatingAdd(e.now, d), fn, arg) }

// Batch is one pre-staged closure-free event for At2Batch. It is the
// staging format of the shard coordinator's mailboxes: messages are
// buffered as Batch records during a window and injected in bulk at the
// barrier, so the slice can go straight from merge scratch to engine.
type Batch struct {
	At  Time
	Fn  func(any)
	Arg any
}

// At2Batch schedules every item through the At2 fast path in one ladder
// pass: bounds are checked per item, but the call overhead, free-list
// refills, and the active-window test are amortized across the batch.
// Items must individually satisfy the At2 contract (not in the past,
// not beyond MaxTime, non-nil Fn); order within the batch becomes
// engine (at, seq) order exactly as if At2 had been called in a loop.
// The caller keeps ownership of the slice — the engine copies what it
// needs into pooled events and never retains items.
func (e *Engine) At2Batch(items []Batch) {
	for i := range items {
		it := &items[i]
		if it.At < e.now {
			panic(fmt.Sprintf("sim: scheduling event at %v before now %v", it.At, e.now))
		}
		if it.At > MaxTime {
			panic(fmt.Sprintf("sim: scheduling event at %d ps, beyond MaxTime (%d ps); use SaturatingAdd for relative timers", int64(it.At), int64(MaxTime)))
		}
		if it.Fn == nil {
			panic("sim: At2Batch with nil Fn")
		}
		e.seq++
		ev := e.alloc()
		ev.at, ev.seq, ev.afn, ev.arg, ev.kind = it.At, e.seq, it.Fn, it.Arg, kindAfn
		e.enqueue(ev)
	}
}

// atProc schedules a resume of p at absolute time t. It shares the
// (at, seq) ordering stream with At/At2, so process wake-ups keep their
// exact tie-break position among ordinary events.
func (e *Engine) atProc(t Time, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if t > MaxTime {
		panic(fmt.Sprintf("sim: scheduling event at %d ps, beyond MaxTime (%d ps); use SaturatingAdd for relative timers", int64(t), int64(MaxTime)))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.arg, ev.kind = t, e.seq, p, kindProc
	e.enqueue(ev)
}

// enqueue routes a scheduled event to the right tier.
func (e *Engine) enqueue(ev *event) {
	switch t := ev.at; {
	case t < e.curEnd:
		e.insertCur(ev)
	case t < e.curEnd+windowSpan:
		e.enqueueWheel(ev)
	default:
		e.far.push(ev)
	}
}

func (e *Engine) enqueueWheel(ev *event) {
	s := int(ev.at>>bucketShift) & bucketMask
	e.buckets[s] = append(e.buckets[s], ev)
	e.occ[s>>6] |= 1 << (s & 63)
	e.wheeln++
}

// insertCur places ev into the sorted unconsumed suffix of the active
// list. The common case — ev sorts after everything still pending in the
// window — is a plain append.
func (e *Engine) insertCur(ev *event) {
	if e.curIdx == len(e.cur) {
		// Fully consumed: recycle the storage instead of growing a dead
		// prefix (a same-instant event chain would otherwise grow cur
		// without bound).
		e.cur = e.cur[:0]
		e.curIdx = 0
		e.cur = append(e.cur, ev)
		return
	}
	if eventCmp(e.cur[len(e.cur)-1], ev) < 0 {
		e.cur = append(e.cur, ev)
		return
	}
	lo, hi := e.curIdx, len(e.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventCmp(e.cur[mid], ev) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.cur = append(e.cur, nil)
	copy(e.cur[lo+1:], e.cur[lo:])
	e.cur[lo] = ev
}

// migrateFar pulls far-tier events that the advancing window now covers
// into their buckets. Called with curEnd freshly advanced, so every
// migrated event lands at or beyond curEnd and slots cannot alias the
// list being dispatched.
func (e *Engine) migrateFar() {
	horizon := e.curEnd + windowSpan
	for len(e.far) > 0 && e.far[0].at < horizon {
		e.enqueueWheel(e.far.pop())
	}
}

// nextOccupied scans the occupancy bitmap ring for the first non-empty
// bucket at or after start. The caller guarantees wheeln > 0.
func (e *Engine) nextOccupied(start int) int {
	w := start >> 6
	if b := e.occ[w] & (^uint64(0) << (start & 63)); b != 0 {
		return w<<6 + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(e.occ); i++ {
		wi := (w + i) % len(e.occ)
		if b := e.occ[wi]; b != 0 {
			return wi<<6 + bits.TrailingZeros64(b)
		}
	}
	panic("sim: occupancy bitmap empty with wheeln > 0")
}

// refill makes cur non-empty (sorted, curIdx at 0) from the earliest
// non-empty tier, sliding the window forward. It reports false when no
// events remain anywhere. This is the single ordering operation per
// event: peeking (RunUntil's boundary check) and popping (Step) are both
// O(1) array accesses against the refilled list.
func (e *Engine) refill() bool {
	e.cur = e.cur[:0]
	e.curIdx = 0
	if e.wheeln == 0 {
		if len(e.far) == 0 {
			return false
		}
		// Jump the window to the earliest far event, then migrate the
		// far prefix in. Far events are always at or beyond the old
		// horizon, so curEnd advances monotonically.
		e.curEnd = e.far[0].at &^ (bucketWidth - 1)
		e.migrateFar()
	}
	start := int(e.curEnd>>bucketShift) & bucketMask
	s := e.nextOccupied(start)
	d := (s - start + numBuckets) & bucketMask
	slotStart := e.curEnd + Time(d)<<bucketShift
	e.cur, e.buckets[s] = e.buckets[s], e.cur[:0]
	e.occ[s>>6] &^= 1 << (s & 63)
	e.wheeln -= len(e.cur)
	e.curEnd = slotStart + bucketWidth
	// The horizon moved: anything in the far tier the window now covers
	// must come in before it could sort ahead of a future bucket.
	e.migrateFar()
	slices.SortFunc(e.cur, eventCmp)
	return true
}

// pop removes and returns the earliest pending event, advancing the
// clock and the fired counter. The caller guarantees the dispatch list
// is non-empty (refill already done).
func (e *Engine) pop() *event {
	ev := e.cur[e.curIdx]
	e.cur[e.curIdx] = nil
	e.curIdx++
	e.now = ev.at
	e.fired++
	if e.EventLimit > 0 && e.fired > e.EventLimit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.EventLimit, e.now))
	}
	return ev
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events are pending. A process
// resume runs synchronously: Step blocks until the process pauses.
func (e *Engine) Step() bool {
	if e.curIdx == len(e.cur) && !e.refill() {
		return false
	}
	ev := e.pop()
	// Recycle before firing: a callback that immediately reschedules
	// (the dominant pattern on the flit path) reuses this same, cache-
	// hot event object.
	switch ev.kind {
	case kindProc:
		p := ev.arg.(*Proc)
		e.release(ev)
		if !p.done {
			p.resumeBlocking()
		}
	case kindFn:
		fn := ev.fn
		e.release(ev)
		fn()
	default:
		afn, arg := ev.afn, ev.arg
		e.release(ev)
		afn(arg)
	}
	return true
}

// driveTo fires callback events in order until the next pending event is
// a live process resume (returned, already popped), the horizon or queue
// is exhausted, or Stop is called. Runs only on the Run caller's
// goroutine: every non-process callback fires here, while all process
// goroutines are parked.
func (e *Engine) driveTo(limit Time) *Proc {
	for !e.stopped {
		if e.curIdx == len(e.cur) && !e.refill() {
			return nil
		}
		if e.cur[e.curIdx].at > limit {
			return nil
		}
		ev := e.pop()
		switch ev.kind {
		case kindProc:
			p := ev.arg.(*Proc)
			e.release(ev)
			if p.done {
				continue // stale wake-up of a finished process
			}
			return p
		case kindFn:
			fn := ev.fn
			e.release(ev)
			fn()
		default:
			afn, arg := ev.afn, ev.arg
			e.release(ev)
			afn(arg)
		}
	}
	return nil
}

// takeProcEvent consumes the next pending event if and only if it is a
// live process resume within the drive horizon. Called by a pausing
// process that holds the dispatch token (the Run caller is parked), so
// it may mutate engine state freely. When the next event would exceed
// EventLimit it declines, bouncing control to driveTo so the limit
// panic fires on the Run caller's goroutine.
func (e *Engine) takeProcEvent() (*Proc, bool) {
	for {
		if e.stopped {
			return nil, false
		}
		if e.curIdx == len(e.cur) && !e.refill() {
			return nil, false
		}
		ev := e.cur[e.curIdx]
		if ev.kind != kindProc || ev.at > e.driveLimit {
			return nil, false
		}
		if e.EventLimit > 0 && e.fired >= e.EventLimit {
			return nil, false
		}
		p := ev.arg.(*Proc)
		e.pop()
		e.release(ev)
		if p.done {
			continue // stale wake-up of a finished process
		}
		return p, true
	}
}

// runLimit is the shared Run/RunUntil core: alternate between driving
// callback events and granting the dispatch token to the next runnable
// process, which gives it back via mainHand when no process resume is
// immediately next.
func (e *Engine) runLimit(limit Time) {
	e.running, e.stopped = true, false
	e.driveLimit = limit
	for !e.stopped {
		p := e.driveTo(limit)
		if p == nil {
			break
		}
		e.resume(p)
		e.mainHand.wait()
	}
	e.drainRunners()
	e.running = false
}

// MaxTime is the largest schedulable virtual time (~107 days), used as
// Run's horizon and as the saturation point for duration arithmetic. It
// sits two ladder windows short of the int64 limit so the window
// arithmetic in enqueue/refill/migrateFar (curEnd + windowSpan, slot
// advance) can never overflow for any legal timestamp; At/At2 reject
// anything beyond it.
const MaxTime = Time(1<<63-1) - 2*windowSpan

// SaturatingAdd returns t+d clamped to MaxTime instead of wrapping.
// Timer arithmetic near the horizon (a "forever" timeout expressed as a
// huge duration, an epoch timer re-armed at the end of a long run) would
// otherwise overflow int64 and produce a timestamp in the past — which
// At turns into a confusing "scheduling before now" panic and RunFor
// turns into a silent no-op. A saturated event sits at MaxTime and fires
// only if the simulation actually drains its queue all the way to the
// horizon; for practical purposes it never fires. Negative d is returned
// unclamped (and rejected downstream by the schedulers' past checks).
func SaturatingAdd(t, d Time) Time {
	if d > 0 && t > MaxTime-d {
		return MaxTime
	}
	return t + d
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() { e.runLimit(MaxTime) }

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// The boundary check peeks the refilled dispatch list directly, so each
// event pays one ordering operation (its bucket's sort, amortized), not
// a heap-peek plus a heap-pop.
func (e *Engine) RunUntil(t Time) {
	if t > MaxTime {
		t = MaxTime
	}
	e.runLimit(t)
	if !e.stopped && t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time, saturating
// at MaxTime (see SaturatingAdd).
func (e *Engine) RunFor(d Time) { e.RunUntil(SaturatingAdd(e.now, d)) }

// NextAt reports the timestamp of the earliest pending event; ok is
// false when nothing is pending. Peeking may slide the ladder window
// forward (the same refill Step would perform), which is observable only
// through internal geometry, never through fire order. The shard
// coordinator uses this to skip idle synchronization windows.
func (e *Engine) NextAt() (at Time, ok bool) {
	if e.curIdx == len(e.cur) && !e.refill() {
		return 0, false
	}
	return e.cur[e.curIdx].at, true
}

// Stop halts Run/RunUntil after the currently firing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Events reports the total number of events fired so far.
func (e *Engine) Events() uint64 { return e.fired }

// farHeap is a hand-rolled binary min-heap ordered by (at, seq) — no
// container/heap interface, no interface{} boxing on push/pop.
type farHeap []*event

func (h *farHeap) push(ev *event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if eventCmp(q[parent], q[i]) <= 0 {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

func (h *farHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventCmp(q[l], q[small]) < 0 {
			small = l
		}
		if r < n && eventCmp(q[r], q[small]) < 0 {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}
