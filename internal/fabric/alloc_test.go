package fabric

import (
	"fmt"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/link"
	"fcc/internal/sim"
	"fcc/internal/txn"
)

// lineRig builds host — fs0 — … — fs(n-1) — device, the device answering
// every read with 64 B and every write with an ack.
func lineRig(tb testing.TB, n int, scfg SwitchConfig) (*sim.Engine, *txn.Endpoint, flit.PortID) {
	tb.Helper()
	eng := sim.NewEngine()
	b := NewBuilder(eng)
	var sws []*Switch
	for i := 0; i < n; i++ {
		sws = append(sws, b.AddSwitch(fmt.Sprintf("fs%d", i), scfg))
		if i > 0 {
			if err := b.ConnectSwitches(sws[i-1], sws[i], link.DefaultConfig()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	ha, err := b.AttachEndpoint(sws[0], "h", RoleHost, link.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	da, err := b.AttachEndpoint(sws[n-1], "d", RoleFAM, link.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	h := txn.NewEndpoint(eng, ha.ID, ha.Port, 0)
	ha.Port.SetSink(h)
	d := txn.NewEndpoint(eng, da.ID, da.Port, 0)
	da.Port.SetSink(d)
	d.Handler = echo
	if err := b.Discover(); err != nil {
		tb.Fatal(err)
	}
	return eng, h, da.ID
}

// echo answers a read with 64 B of data and anything else with an ack.
func echo(req *flit.Packet, reply func(*flit.Packet)) {
	if req.Op == flit.OpMemRd {
		reply(req.Response(flit.OpMemRdData, 64))
		return
	}
	reply(req.Response(flit.OpMemWrAck, 0))
}

// roundTripAllocs measures the steady-state allocations of one read
// round trip from h to dst, after a few batches have warmed every pool
// on the path. The engine's wheel buckets are event lists, and its one
// dispatch list reaches its peak in the first batch, so the engine
// needs no longer warm-up.
func roundTripAllocs(eng *sim.Engine, h *txn.Endpoint, dst flit.PortID) float64 {
	batch := func() {
		for i := 0; i < 16; i++ {
			h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Dst: dst})
		}
		eng.Run()
	}
	for round := 0; round < 4; round++ {
		batch()
	}
	return testing.AllocsPerRun(20, batch) / 16
}

// TestSwitchHopZeroAlloc pins a switch hop at zero allocations: a read
// round trip across a line of 1, 2 or 3 switches allocates no more than
// the same round trip over one direct link (the escaping packets, each
// with its payload inline, and the future). Only the endpoints decode packets; a switch
// hands the received flit train to its output port, which copies it into
// pooled flits.
func TestSwitchHopZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	l, err := link.New(eng, "direct", link.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := txn.NewEndpoint(eng, 1, l.A(), 0)
	d := txn.NewEndpoint(eng, 2, l.B(), 0)
	l.A().SetSink(h)
	l.B().SetSink(d)
	d.Handler = echo
	direct := roundTripAllocs(eng, h, 2)
	t.Logf("direct link: %.2f allocs per round trip", direct)
	for n := 1; n <= 3; n++ {
		eng, h, dst := lineRig(t, n, DefaultSwitchConfig())
		got := roundTripAllocs(eng, h, dst)
		t.Logf("%d switches: %.2f allocs per round trip", n, got)
		if got > direct {
			t.Errorf("a round trip across %d switches allocates %.2f, against %.2f over a direct link; want no more",
				n, got, direct)
		}
	}
}

// TestHeldOutputZeroAlloc pins the held-train queue's steady state: a
// switch whose output queue holds packets under backpressure allocates
// no more than one whose queue never fills. Two hosts write to one
// device through a switch; with a 2-flit output queue the device port
// holds trains on every batch. A held queue popped by reslicing loses
// its capacity once it empties and allocates a new array on the next
// hold.
func TestHeldOutputZeroAlloc(t *testing.T) {
	measure := func(outQueue int) (allocs float64, holds int64) {
		eng := sim.NewEngine()
		b := NewBuilder(eng)
		scfg := DefaultSwitchConfig()
		scfg.OutQueueFlits = outQueue
		sw := b.AddSwitch("fs0", scfg)
		var hosts []*txn.Endpoint
		for i := 0; i < 2; i++ {
			att, err := b.AttachEndpoint(sw, fmt.Sprintf("h%d", i), RoleHost, link.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			h := txn.NewEndpoint(eng, att.ID, att.Port, 0)
			att.Port.SetSink(h)
			hosts = append(hosts, h)
		}
		da, err := b.AttachEndpoint(sw, "d", RoleFAM, link.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		d := txn.NewEndpoint(eng, da.ID, da.Port, 0)
		da.Port.SetSink(d)
		d.Handler = echo
		if err := b.Discover(); err != nil {
			t.Fatal(err)
		}
		batch := func() {
			for i := 0; i < 8; i++ {
				for _, h := range hosts {
					h.Request(&flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Dst: da.ID, Size: 64})
				}
			}
			eng.Run()
		}
		// Warm the pools, so both runs allocate only what escapes: 4
		// objects per write (the request, its future and the two
		// decoded packets).
		for round := 0; round < 4; round++ {
			batch()
		}
		return testing.AllocsPerRun(20, batch), sw.HolStalls.Value()
	}
	free, _ := measure(64)
	held, holds := measure(2)
	t.Logf("16 writes: %.0f allocs with a 64-flit output queue, %.0f with a 2-flit one (%d holds)", free, held, holds)
	if holds == 0 {
		t.Fatal("the 2-flit output queue held nothing")
	}
	if held > free {
		t.Fatalf("16 writes allocate %.0f through a holding switch, against %.0f through one that never holds; want no more", held, free)
	}
}
