package link

import (
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

func allocRig(t *testing.T, name string) (*sim.Engine, *Link) {
	t.Helper()
	eng := sim.NewEngine()
	l, err := New(eng, name, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l.A().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	return eng, l
}

// TestLinkSendPathZeroAlloc pins the transmit-side allocation diet: with
// warm pools, Send (pooled encode, recycled txPacket, closure-free kick)
// performs zero heap allocations. The engine stays idle during the
// measurement so only the enqueue path is on the scale; the pools are
// pre-sized to cover every packet the measurement enqueues.
func TestLinkSendPathZeroAlloc(t *testing.T) {
	eng, l := allocRig(t, "alloc")
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: 64}

	// Warm: 256 packets through the link grow the tx queue, the flit and
	// txPacket free lists, and the engine's event pool past anything the
	// measurement below needs.
	for i := 0; i < 256; i++ {
		l.A().Send(pkt)
	}
	eng.Run()

	// 5 rounds x 16 packets stay well inside the warmed pools.
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < 16; i++ {
			l.A().Send(pkt)
		}
	}); n != 0 {
		t.Fatalf("Send allocates %.2f per 16-packet round in steady state, want 0", n)
	}
}

// TestLinkDeliveryAllocCeiling bounds the receive side: delivering a
// packet hands the sink a freshly allocated Packet by design — it
// escapes to the transaction layer, and a 64-byte payload rides inside
// it — while the credit-release record is pooled and nothing else on
// the wire path may allocate. So a delivered 64-byte write costs at
// most 1 allocation end to end: a payload of its own, a flit or an
// event would each show as a second.
func TestLinkDeliveryAllocCeiling(t *testing.T) {
	eng, l := allocRig(t, "allocd")
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemWr, Src: 1, Dst: 2, Size: 64}
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			l.A().Send(pkt)
		}
		eng.Run()
	}
	n := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			l.A().Send(pkt)
		}
		eng.Run()
	})
	perPkt := n / 16
	t.Logf("delivery: %.2f allocs per 64-byte write", perPkt)
	if perPkt > 1 {
		t.Fatalf("delivery allocates %.2f per packet end to end, want <= 1", perPkt)
	}
}

// TestRetransmitZeroAlloc pins the retry queue's steady state: a NAK'd
// flit costs no allocation on its way back onto the wire. Each cycle
// sends a header-only packet and NAKs it while it is still in the replay
// buffer, so the retry queue fills and drains once per packet; the
// duplicate lands as a stale retransmission. The cycles must allocate no
// more than the same cycles without the NAK (the receiver's decoded
// packet). A queue popped by reslicing loses its capacity once it
// empties and allocates a new array on the next NAK.
func TestRetransmitZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RetryEnabled = true
	l, err := New(eng, "retry", cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.A().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	l.B().SetSink(SinkFunc(func(pkt *flit.Packet, release func()) { release() }))
	pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: 1, Dst: 2}
	cycles := func(nak bool) func() {
		return func() {
			for i := 0; i < 16; i++ {
				seq := l.A().vcSeq[pkt.Chan]
				l.A().Send(pkt)
				if nak {
					l.A().handleNak(pkt.Chan, seq)
				}
				eng.Run()
			}
		}
	}
	// Warm the pools, so both measurements count only the decoded
	// packets.
	for round := 0; round < 4; round++ {
		cycles(true)()
		cycles(false)()
	}
	plain := testing.AllocsPerRun(20, cycles(false))
	naked := testing.AllocsPerRun(20, cycles(true))
	t.Logf("16 packets: %.0f allocs, %.0f with a NAK each", plain, naked)
	if got := l.A().Retransmits.Value(); got == 0 {
		t.Fatal("no flit was retransmitted")
	}
	if naked > plain {
		t.Fatalf("16 NAK'd packets allocate %.0f, against %.0f without the NAK; want no more", naked, plain)
	}
}

// TestLinksShareEngineRecycling pins the link layer's recycling scope:
// every port on an engine draws from one flit pool per flit mode and one
// set of record free lists, so the flit or record one link lets go of
// is the next one another link draws. A port on another engine draws
// from its own.
func TestLinksShareEngineRecycling(t *testing.T) {
	eng := sim.NewEngine()
	link := func(eng *sim.Engine, name string, mode flit.Mode) *Link {
		cfg := DefaultConfig()
		cfg.Mode = mode
		l, err := New(eng, name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	x, y := link(eng, "x", flit.Mode68), link(eng, "y", flit.Mode68)
	for _, p := range []*Port{x.B(), y.A(), y.B()} {
		if p.pool != x.A().pool {
			t.Fatalf("port %s draws from another flit pool than port %s on the same engine", p.Name(), x.A().Name())
		}
	}
	if w := link(eng, "w", flit.Mode256); w.A().pool == x.A().pool || w.A().pool.Mode() != flit.Mode256 {
		t.Fatal("a 256B link shares the 68B links' flit pool")
	}
	if z := link(sim.NewEngine(), "z", flit.Mode68); z.A().pool == x.A().pool {
		t.Fatal("links on two engines share a flit pool")
	}

	f := x.A().pool.Get()
	x.A().pool.Release(f)
	if g := y.B().pool.Get(); g != f {
		t.Fatal("the flit link x released is not the next one link y draws")
	}
	tp := x.A().getTxPacket()
	x.A().putTxPacket(tp)
	if got := y.B().getTxPacket(); got != tp {
		t.Fatal("the txPacket link x released is not the next one link y draws")
	}
	m := x.B().getMsg()
	x.B().putMsg(m)
	if got := y.A().getMsg(); got != m || got.p != y.A() {
		t.Fatal("the linkMsg link x released is not the next one link y draws, set to y's port")
	}
	r := x.A().getRelease()
	r.release()
	if got := y.B().getRelease(); got != r || got.p != y.B() {
		t.Fatal("the pktRelease link x released is not the next one link y draws, set to y's port")
	}
}
