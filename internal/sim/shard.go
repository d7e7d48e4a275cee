package sim

//fcclint:conc shard coordinator: the sanctioned cross-engine concurrency

import (
	"fmt"
	"slices"
)

// Coordinator runs several Engines — one per failure domain ("shard") —
// in parallel while preserving the determinism contract: the same seed
// produces the same result regardless of how many OS threads execute
// the shards, and (for models whose cross-shard interactions are
// tie-free, see below) byte-identical results to running the whole
// model on a single Engine.
//
// # Synchronization model
//
// This is conservative PDES with a per-(src,dst) lookahead matrix.
// Every shard i carries a frontier F_i — all its events before F_i
// have fired. One synchronization round computes, for every
// destination shard, the horizon it can safely reach,
//
//	safe(dst) = min over src != dst of F_src + lookahead(src, dst),
//
// runs every engine (in parallel) to its own safe horizon, and then
// delivers the cross-shard messages buffered during the round at a
// barrier. Safety holds because a message src sends while executing
// carries a model delay of at least lookahead(src, dst): it cannot be
// timestamped before F_src + lookahead(src, dst) >= safe(dst), i.e.
// before anything the destination has already executed. Mailbox.Send
// enforces that bound and panics on violation rather than silently
// reordering time.
//
// The matrix defaults to the constructor's window for every pair; pairs
// that are coupled more loosely (longer wires) — or not at all — can be
// raised with SetLookahead, which fabric.(*Builder).Discover does from
// the actual cut-link propagation delays. Loose pairs then synchronize
// on much wider effective windows: in a pod-of-racks topology where
// only long-haul optics cross shard cuts, every round advances a full
// optical propagation even though the coordinator would also accept
// intra-rack-scale windows.
//
// # Execution
//
// Shard 0 runs on the caller's goroutine; shards 1..n-1 run on
// persistent pinned workers (one per shard, spawned when a run starts)
// that rendezvous through an epoch-counter barrier with bounded
// spin-then-park waiting (see barrier.go) — per round the
// synchronization cost is a handful of atomic operations, not 2n
// channel handoffs and goroutine wakeups.
//
// # Why determinism is preserved
//
//   - Each Engine is single-threaded within a round and touched by
//     exactly one goroutine at a time; the barrier's atomic
//     release/arrive edges provide the happens-before between rounds.
//   - Barrier delivery is canonical: pending messages for a destination
//     are gathered in (source shard, send order) sequence and stably
//     sorted by timestamp, so equal-timestamp messages from one source
//     keep their FIFO order and the injected engine sequence numbers
//     are a pure function of model state — never of OS scheduling.
//   - The idle-round jump is computed from engine queue state only.
//
// Consequently a Coordinator run is bit-reproducible across machines,
// GOMAXPROCS settings, and the parallel/sequential execution modes.
// Equivalence with a *single-engine* serial run additionally requires
// that the model never generates an exact-picosecond tie between a
// cross-shard message and an unrelated event at the same destination
// object (the serial engine breaks such ties by global scheduling
// order, which sharding cannot observe). Port-to-port links are
// single-source FIFO streams, so the fabric models satisfy this for
// the tested topologies; the equivalence suite enforces it empirically
// (see TestCoordinatorMatchesSerialEngine and the fcc-level
// shard-equivalence tests). A one-shard coordinator, every serial
// cluster's, runs each call as one round on the caller's goroutine and
// fires the same events with the same clocks as its bare engine
// (TestCoordinatorOneShardMatchesEngine, FuzzEngineOrder).
type Coordinator struct {
	engines []*Engine
	window  Time       // default lookahead, the floor for every pair
	la      []Time     // lookahead matrix, src*n+dst
	boxes   []*Mailbox // src*n+dst; nil until requested
	front   []Time     // per-shard frontier: all events < front[i] fired
	limits  []Time     // per-shard delivery floor (exclusive round end)
	wlimits []Time     // per-shard RunUntil target for the current round
	now     Time       // time reached by the last run call (see Now)
	merged  []Batch    // barrier merge scratch, recycled every round
	windows uint64     // rounds synchronized (see Windows)
	xmsgs   uint64     // cross-shard messages delivered (see Messages)

	bar coordBarrier
}

// Mailbox is a unidirectional cross-shard channel from one shard's
// engine to another's. Sends are buffered locally during a round and
// delivered — deterministically ordered — at the barrier. It carries
// the message records back too: the destination hands each arg it has
// consumed back with Return, the barrier moves those to the source's
// side, and the source's Reuse draws one for its next Send, so steady
// cross-shard traffic allocates nothing. Send and Reuse run on the
// source shard, Return on the destination shard: during a round each
// side touches only its own lists, and the exchange between rounds,
// when no worker runs, is the one place both are touched. A Mailbox must
// be created before the simulation starts running.
type Mailbox struct {
	c        *Coordinator
	src, dst int
	out      []Batch
	back     []any // consumed args handed back this round (destination side)
	spare    []any // args handed back by past rounds (source side)
}

// NewCoordinator returns a coordinator over n fresh engines with the
// given default lookahead window. The window must not exceed the
// minimum cross-shard model delay of any pair (Mailbox.Send panics when
// a message violates that bound); pairs with longer minimum delays can
// be relaxed with SetLookahead.
func NewCoordinator(n int, window Time) *Coordinator {
	if n < 1 {
		panic("sim: NewCoordinator needs at least one shard")
	}
	if window <= 0 {
		panic("sim: NewCoordinator window must be positive")
	}
	c := &Coordinator{window: window}
	for i := 0; i < n; i++ {
		c.engines = append(c.engines, NewEngine())
	}
	c.boxes = make([]*Mailbox, n*n)
	c.la = make([]Time, n*n)
	for i := range c.la {
		c.la[i] = window
	}
	c.front = make([]Time, n)
	c.limits = make([]Time, n)
	c.wlimits = make([]Time, n)
	return c
}

// Shards reports the number of shards.
func (c *Coordinator) Shards() int { return len(c.engines) }

// Window reports the default lookahead window width.
func (c *Coordinator) Window() Time { return c.window }

// Engine returns shard i's private engine.
func (c *Coordinator) Engine(i int) *Engine { return c.engines[i] }

// Now reports the time the coordinated simulation has reached: the
// target of the last RunUntil or RunFor, or, after Run or a Stop, the
// latest engine clock.
func (c *Coordinator) Now() Time { return c.now }

// Windows reports the number of synchronization rounds run so far —
// the barrier count the per-pair lookahead matrix and the idle jump
// exist to minimize.
func (c *Coordinator) Windows() uint64 { return c.windows }

// Messages reports the number of cross-shard messages delivered.
func (c *Coordinator) Messages() uint64 { return c.xmsgs }

// SetLookahead declares that every cross-shard message from src to dst
// carries a model delay of at least la: the destination may then run
// that far beyond the source's frontier before a barrier. Raising a
// pair above the true minimum delay of the model is unsafe — the
// resulting violation is caught by Mailbox.Send's panic, not silently
// reordered. Pairs that can never communicate should be set to MaxTime
// so they impose no coupling at all. Must be called before the
// simulation starts running.
func (c *Coordinator) SetLookahead(src, dst int, la Time) {
	if src == dst {
		panic("sim: SetLookahead on a shard's own pair")
	}
	if la <= 0 {
		panic("sim: SetLookahead must be positive")
	}
	c.la[src*len(c.engines)+dst] = la
}

// Lookahead reports the lookahead bound for the (src, dst) pair.
func (c *Coordinator) Lookahead(src, dst int) Time {
	return c.la[src*len(c.engines)+dst]
}

// Mailbox returns the src->dst mailbox, creating it on first use.
func (c *Coordinator) Mailbox(src, dst int) *Mailbox {
	if src == dst {
		panic("sim: mailbox to own shard; schedule locally instead")
	}
	n := len(c.engines)
	b := c.boxes[src*n+dst]
	if b == nil {
		b = &Mailbox{c: c, src: src, dst: dst}
		c.boxes[src*n+dst] = b
	}
	return b
}

// Send queues fn(arg) for delivery into the destination shard at
// absolute time at. It must be called from model code executing on the
// source shard, and at must not violate the pair's lookahead: at >= the
// end of the round the destination is currently executing. The message
// is injected into the destination engine at the next barrier.
func (m *Mailbox) Send(at Time, fn func(any), arg any) {
	if at < m.c.limits[m.dst] {
		panic(fmt.Sprintf(
			"sim: cross-shard message %d->%d at %v violates lookahead (destination round ends %v); "+
				"every %d->%d delay must be >= the pair's lookahead (%v)",
			m.src, m.dst, at, m.c.limits[m.dst], m.src, m.dst, m.c.Lookahead(m.src, m.dst)))
	}
	if fn == nil {
		panic("sim: Mailbox.Send with nil fn")
	}
	m.out = append(m.out, Batch{At: at, Fn: fn, Arg: arg})
}

// Reuse returns an arg the destination handed back and a past barrier
// moved to this side, the last one moved first, or nil if there is none.
// It must be called from the source shard.
func (m *Mailbox) Reuse() any {
	n := len(m.spare) - 1
	if n < 0 {
		return nil
	}
	a := m.spare[n]
	m.spare[n] = nil
	m.spare = m.spare[:n]
	return a
}

// Return hands a delivered arg back to the source once the destination
// is done with it: the next barrier moves it to the source's side, where
// Reuse draws it. It must be called from the destination shard, and the
// destination must not touch the arg afterwards.
func (m *Mailbox) Return(arg any) { m.back = append(m.back, arg) }

// sortBatches stable-sorts by timestamp: equal-at messages keep their
// (src, send order) gathering sequence, so injection order — and with
// it the destination engine's tie-break sequence — is a pure function
// of model state.
func sortBatches(b []Batch) {
	slices.SortStableFunc(b, func(x, y Batch) int {
		switch {
		case x.At < y.At:
			return -1
		case x.At > y.At:
			return 1
		}
		return 0
	})
}

// exchange drains every mailbox into its destination engine in the
// canonical order, and moves the args each destination handed back to
// their source's side. Destinations with no inbound traffic cost one
// emptiness scan; destinations fed by a single source skip the merge
// scratch entirely (their own buffer is sorted in place and
// bulk-injected). Buffers and the scratch are recycled — steady state,
// a round performs zero heap allocations (TestCoordinatorZeroAllocWindows
// pins this).
func (c *Coordinator) exchange() {
	n := len(c.engines)
	for dst := 0; dst < n; dst++ {
		var single *Mailbox
		nonempty := 0
		for src := 0; src < n; src++ {
			b := c.boxes[src*n+dst]
			if b == nil {
				continue
			}
			if len(b.back) > 0 {
				b.spare = append(b.spare, b.back...)
				clear(b.back)
				b.back = b.back[:0]
			}
			if len(b.out) > 0 {
				nonempty++
				single = b
			}
		}
		if nonempty == 0 {
			continue
		}
		if nonempty == 1 {
			// Single-source fast path: no gather copy. Stable sort keeps
			// send order on ties, exactly as the merge path would.
			sortBatches(single.out)
			c.engines[dst].At2Batch(single.out)
			c.xmsgs += uint64(len(single.out))
			clear(single.out) // drop fn/arg references
			single.out = single.out[:0]
			continue
		}
		buf := c.merged[:0]
		for src := 0; src < n; src++ {
			b := c.boxes[src*n+dst]
			if b == nil || len(b.out) == 0 {
				continue
			}
			buf = append(buf, b.out...)
			clear(b.out)
			b.out = b.out[:0]
		}
		sortBatches(buf)
		c.engines[dst].At2Batch(buf)
		c.xmsgs += uint64(len(buf))
		clear(buf)
		// Recycle unconditionally: the scratch must keep its grown
		// capacity even when a later destination turns out empty.
		c.merged = buf[:0]
	}
}

// minFront reports the lowest shard frontier.
func (c *Coordinator) minFront() Time { return slices.Min(c.front) }

// latest reports the latest engine clock.
func (c *Coordinator) latest() Time {
	m := c.engines[0].now
	for _, e := range c.engines[1:] {
		m = max(m, e.now)
	}
	return m
}

// runShard runs shard i to its round horizon. A horizon another shard
// bounds leaves the clock there, as Engine.RunUntil does; the unbounded
// horizon MaxTime drains the shard like Engine.Run, leaving the clock at
// its last event.
func (c *Coordinator) runShard(i int) {
	if lim := c.wlimits[i]; lim < MaxTime {
		c.engines[i].RunUntil(lim)
	} else {
		c.engines[i].Run()
	}
}

// runWindows advances every shard to horizon t (inclusive), round by
// round, and reports false if a Stop on some shard's engine ended it at
// a round's barrier. It also returns once every engine is drained and
// no messages are in flight; when idle is true that ends the run, the
// multi-engine analogue of Engine.Run, with Now at the latest engine
// clock.
func (c *Coordinator) runWindows(t Time, idle bool) bool {
	n := len(c.engines)
	par := n > 1 && coordParallel
	if par {
		c.startWorkers()
		defer c.stopWorkers()
	}
	// Work scheduled between runs lands at or after its engine's clock.
	// A drained Run can leave a frontier far past the clock (MaxTime, at
	// one shard); bring it back to one past the clock, where a bounded
	// round leaves it, so the rounds below see that work.
	for i, e := range c.engines {
		c.front[i] = min(c.front[i], SaturatingAdd(e.now, 1))
	}
	for c.minFront() <= t {
		// Per-destination safe horizon from the lookahead matrix. A
		// saturated bound (no other shard constrains the destination) or
		// one past the horizon means the destination is free to run to t
		// inclusive.
		for dst := 0; dst < n; dst++ {
			safe := MaxTime
			for src := 0; src < n; src++ {
				if src == dst {
					continue
				}
				safe = min(safe, SaturatingAdd(c.front[src], c.la[src*n+dst]))
			}
			lim := t
			if safe <= t && safe < MaxTime {
				lim = safe - 1
			}
			c.wlimits[dst] = lim
			c.limits[dst] = SaturatingAdd(lim, 1)
		}
		if par {
			c.releaseWorkers()
			c.runShard(0)
			c.awaitWorkers()
		} else {
			for i := range c.engines {
				c.runShard(i)
			}
		}
		c.windows++
		// A stopped engine has fired every event before its clock and
		// none after it.
		stopped := false
		for i, e := range c.engines {
			f := SaturatingAdd(c.wlimits[i], 1)
			if e.stopped {
				f, stopped = e.now, true
			}
			c.front[i] = max(c.front[i], f)
		}
		c.exchange()
		if stopped {
			c.now = c.latest()
			return false
		}
		// Nothing pending anywhere ends the loop: Run returns with Now at
		// the latest clock, RunUntil goes on to lift every clock to t.
		// Otherwise, idle jump: if every shard's next event is beyond its
		// frontier, skip every frontier straight to the earliest pending
		// timestamp. No messages are in flight (exchange just drained
		// them), and any future send happens at an event >= that
		// timestamp, so it cannot create work before it.
		next, pending := MaxTime, false
		for _, e := range c.engines {
			if at, ok := e.NextAt(); ok {
				next, pending = min(next, at), true
			}
		}
		if !pending && idle {
			c.now = c.latest()
			return true
		}
		if !pending || next > t {
			break // nothing left within the horizon
		}
		for i := range c.front {
			c.front[i] = max(c.front[i], next)
		}
	}
	c.now = t
	return true
}

// RunUntil advances every shard to time t: all events with timestamps
// <= t fire, then every engine's clock reads t. A Stop on any shard's
// engine ends it early at that round's barrier, as it ends
// Engine.RunUntil, and leaves the clocks where the round left them.
func (c *Coordinator) RunUntil(t Time) {
	if t < c.now || !c.runWindows(t, false) {
		return
	}
	for _, e := range c.engines {
		e.RunUntil(t) // lift shards that went idle early up to the horizon
	}
}

// RunFor advances the coordinated simulation by d, saturating at
// MaxTime.
func (c *Coordinator) RunFor(d Time) { c.RunUntil(SaturatingAdd(c.now, d)) }

// Run advances the coordinated simulation until every shard's queue is
// drained and no cross-shard messages are in flight, or until a Stop on
// any shard's engine ends the round it fired in.
func (c *Coordinator) Run() { c.runWindows(MaxTime, true) }
