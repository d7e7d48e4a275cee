package sim

//fcclint:conc barrier primitives: the sanctioned cross-engine concurrency

import (
	"runtime"
	"sync/atomic"
)

// coordBarrier is the synchronization core of the parallel Coordinator:
// one persistent worker goroutine per shard beyond the first, released
// and joined once per round through an epoch counter and an arrival
// counter instead of per-round channel rendezvous.
//
// Release: the main goroutine publishes the round's horizons (plain
// writes to wlimits), resets arrived, then increments epoch — a
// sequentially-consistent store that carries the happens-before edge to
// every worker's epoch load. Workers spin briefly on epoch (bounded,
// with periodic yields) and fall back to parking on a buffered(1)
// semaphore channel; the parked flag tells the releaser whether a
// wakeup send is needed at all, so the uncontended fast path is pure
// atomics. The flag/recheck pairs on both sides are ordered by the
// sequentially-consistent atomics, so a wakeup can never be lost; a
// semaphore token left over from a race is consumed harmlessly by the
// next park's recheck loop.
//
// Join is the mirror image: each worker increments arrived after
// finishing its engine's round; the last arrival wakes the main
// goroutine if it parked. The arrived load in awaitWorkers carries the
// happens-before edge back, so the main goroutine's barrier-delivery
// phase (exchange) observes every engine and mailbox write the workers
// made.
//
// Workers never outlive a run: runWindows starts them on entry and
// stops them (closing flag + one extra release) on exit, so idle
// clusters — tests build thousands — hold no goroutines.
type coordBarrier struct {
	epoch   atomic.Uint64 // release counter, bumped once per round
	arrived atomic.Int64  // workers done with the current round

	mainParked atomic.Int32  // main goroutine is parked in awaitWorkers
	mainSem    chan struct{} // binary semaphore waking the main goroutine

	workers []*coordWorker // workers[i] drives shard i+1
	closing bool           // plain write before the final release
}

// coordWorker is one shard's persistent executor. The fields a releaser
// touches sit in their own cache line so wakeup checks on one worker
// don't bounce the others' lines.
type coordWorker struct {
	parked atomic.Int32  // worker is parked in awaitEpoch
	sem    chan struct{} // binary semaphore waking the worker
	_      [56]byte      // keep workers off each other's cache lines
}

// coordParallel gates worker goroutines on the runtime actually having
// more than one P. On a single-P runtime the workers cannot overlap
// with the main goroutine — every round would just ping-pong the one P
// through the scheduler — so the coordinator runs its (byte-identical)
// sequential path instead. Purely an execution-strategy choice: the
// equivalence suite sets it both ways to pin that the two paths produce
// identical results. A one-shard coordinator never spawns a worker.
var coordParallel = runtime.GOMAXPROCS(0) > 1

// coordSpins bounds the busy-wait before parking. On a single-P runtime
// spinning only steals time from the goroutine being waited on, so park
// essentially immediately; on real parallel hardware a round is far
// shorter than a goroutine wakeup, so spin long enough to ride out the
// common case. The value never influences simulation results — only
// how the wait is implemented.
var coordSpins = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 4096
	}
	return 1
}()

// startWorkers spawns one pinned worker per shard beyond the first.
func (c *Coordinator) startWorkers() {
	b := &c.bar
	b.closing = false
	b.arrived.Store(0)
	if b.mainSem == nil {
		b.mainSem = make(chan struct{}, 1)
	}
	b.workers = make([]*coordWorker, len(c.engines)-1)
	epoch := b.epoch.Load() // capture before spawning: the first release is epoch+1
	total := int64(len(b.workers))
	for i := range b.workers {
		w := &coordWorker{sem: make(chan struct{}, 1)}
		b.workers[i] = w
		go c.workerLoop(i+1, w, epoch, total)
	}
}

// stopWorkers releases the workers one final time with closing set and
// joins their exit arrivals.
func (c *Coordinator) stopWorkers() {
	b := &c.bar
	b.closing = true
	c.releaseWorkers()
	c.awaitWorkers()
	b.workers = nil
}

// workerLoop runs one shard: wait for a release, run the engine to the
// round's horizon, arrive, repeat — until the closing release.
func (c *Coordinator) workerLoop(shard int, w *coordWorker, epoch uint64, total int64) {
	for {
		epoch = c.bar.awaitEpoch(epoch, w)
		if c.bar.closing {
			c.arrive(total)
			return
		}
		c.runShard(shard)
		c.arrive(total)
	}
}

// awaitEpoch blocks until the barrier's epoch passes last, spinning
// first and parking on the worker's semaphore if the release takes too
// long. Returns the epoch waited for.
func (b *coordBarrier) awaitEpoch(last uint64, w *coordWorker) uint64 {
	target := last + 1
	for spin := 0; spin < coordSpins; spin++ {
		if b.epoch.Load() >= target {
			return target
		}
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
	w.parked.Store(1)
	for b.epoch.Load() < target {
		// A stale token from an earlier racy wakeup is consumed here and
		// the condition rechecked, so it can never cause a spurious round.
		<-w.sem
	}
	w.parked.Store(0)
	return target
}

// releaseWorkers starts the next round: reset the arrival count, bump
// the epoch, and wake any worker that parked.
func (c *Coordinator) releaseWorkers() {
	b := &c.bar
	b.arrived.Store(0)
	b.epoch.Add(1)
	for _, w := range b.workers {
		if w.parked.Load() == 1 {
			select {
			case w.sem <- struct{}{}:
			default: // token already pending; the recheck loop copes
			}
		}
	}
}

// arrive records one worker's round completion; the last arrival wakes
// the main goroutine if it parked. total is the spawn-time worker count
// — arrive must not read barrier fields the main goroutine may already
// be recycling once the final arrival lands.
func (c *Coordinator) arrive(total int64) {
	b := &c.bar
	if b.arrived.Add(1) == total {
		if b.mainParked.Load() == 1 {
			select {
			case b.mainSem <- struct{}{}:
			default:
			}
		}
	}
}

// awaitWorkers blocks the main goroutine until every worker has arrived
// for the current round, spinning first and parking on mainSem if the
// stragglers take too long.
func (c *Coordinator) awaitWorkers() {
	b := &c.bar
	want := int64(len(b.workers))
	for spin := 0; spin < coordSpins; spin++ {
		if b.arrived.Load() == want {
			return
		}
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
	b.mainParked.Store(1)
	for b.arrived.Load() != want {
		<-b.mainSem
	}
	b.mainParked.Store(0)
}
