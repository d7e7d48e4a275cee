package fabstore

import (
	"testing"

	"fcc/internal/sim"
)

// TestGateCyclesReuseStorage pins the admission gates' queues at zero
// allocations once warm, in FIFO order. One cycle takes a WAL slot from
// the front of the free list, parks a put waiting for a slot, and
// releases the slot, which goes to the back of the list and wakes the
// put; then it parks a quota waiter on a full gate and releases enough
// bytes to admit it.
func TestGateCyclesReuseStorage(t *testing.T) {
	const slots = 4
	c := &Client{wal: make([]slotPool, 1)}
	sp := &c.wal[0]
	for slot := 0; slot < slots; slot++ {
		sp.free.Push(slot)
	}
	g := byteGate{limit: 4}
	woken, taken, misordered := 0, 0, 0
	wake := func() { woken++ }
	var allocs float64
	eng := sim.NewEngine()
	eng.Go("cycles", func(p *sim.Proc) {
		cycles := func() {
			for i := 0; i < 64; i++ {
				if c.walAcquireP(p, 0) != taken%slots {
					misordered++
				}
				sp.waiters.Push(wake)
				sp.release(taken % slots)
				taken++

				g.inUse = g.limit
				g.waiters.Push(gateWait{need: 1, wake: wake})
				g.release(1)
			}
		}
		cycles()
		allocs = testing.AllocsPerRun(20, cycles)
	})
	eng.Run()
	if misordered != 0 {
		t.Fatalf("%d of %d slots came off the free list out of FIFO order", misordered, taken)
	}
	if allocs != 0 {
		t.Fatalf("a warm run of 64 gate cycles allocates %v times, want 0", allocs)
	}
	if want := 2 * taken; woken != want {
		t.Fatalf("woke %d waiters, want %d", woken, want)
	}
	if sp.free.Len() != slots || sp.waiters.Len() != 0 || g.waiters.Len() != 0 {
		t.Fatalf("queues hold %d slots, %d and %d waiters after the cycles; want %d, 0 and 0",
			sp.free.Len(), sp.waiters.Len(), g.waiters.Len(), slots)
	}
}
