package link

import (
	"slices"
	"testing"

	"fcc/internal/flit"
	"fcc/internal/sim"
)

// echo is a sink that records when each packet arrives and answers
// every read with a 64 B completion from the port the read arrived at.
type echo struct {
	eng   *sim.Engine
	port  *Port
	times []sim.Time
	resp  flit.Packet // reused: Send encodes it before returning
}

func (e *echo) Arrive(pkt *flit.Packet, release func()) {
	e.times = append(e.times, e.eng.Now())
	release()
	if pkt.Op == flit.OpMemRd {
		e.resp.Tag = pkt.Tag
		e.port.Send(&e.resp)
	}
}

// echoLink is a link with an echo at each end, and the call that runs
// whatever drives it.
type echoLink struct {
	l          *Link
	engA, engB *sim.Engine
	a, b       *echo
	run        func()
}

func newEcho(eng *sim.Engine, p *Port) *echo {
	e := &echo{eng: eng, port: p,
		resp: flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRdData, Src: 2, Dst: 1, Size: 64}}
	p.SetSink(e)
	return e
}

// localEcho builds the link on one engine with New.
func localEcho(t *testing.T, cfg Config) *echoLink {
	t.Helper()
	eng := sim.NewEngine()
	l, err := New(eng, "local", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &echoLink{l: l, engA: eng, engB: eng,
		a: newEcho(eng, l.A()), b: newEcho(eng, l.B()), run: eng.Run}
}

// crossEcho builds the link with NewCross between the two engines of a
// 2-shard coordinator whose window is the link's propagation delay.
func crossEcho(t *testing.T, cfg Config) *echoLink {
	t.Helper()
	c := sim.NewCoordinator(2, cfg.Phys.Propagation)
	l, err := NewCross("cross", cfg, c.Engine(0), c.Engine(1), c.Mailbox(0, 1), c.Mailbox(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	return &echoLink{l: l, engA: c.Engine(0), engB: c.Engine(1),
		a: newEcho(c.Engine(0), l.A()), b: newEcho(c.Engine(1), l.B()), run: c.Run}
}

// drive schedules one packet sequence on both sides and runs it: A sends
// reads (each echoed back with data) and writes of 1 to 5 flits, in
// bursts, while B sends writes of its own.
func (e *echoLink) drive() {
	for i := 0; i < 48; i++ {
		at := sim.Time(i/4) * 9 * sim.Nanosecond
		pkt := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: 1, Dst: 2, Tag: uint16(i), ReqLen: 64}
		if i%3 == 1 {
			pkt.Op, pkt.ReqLen, pkt.Size = flit.OpMemWr, 0, uint32(64*(i%5))
		}
		e.engA.At(at, func() { e.l.A().Send(pkt) })
		if i%4 == 0 {
			w := &flit.Packet{Chan: flit.ChIO, Op: flit.OpIOWr, Src: 2, Dst: 1, Tag: uint16(i), Size: 256}
			e.engB.At(at+3*sim.Nanosecond, func() { e.l.B().Send(w) })
		}
	}
	e.run()
}

// credits lists both ports' transmit credits and receive-buffer use on
// every VC.
func (e *echoLink) credits() []int {
	var out []int
	for _, p := range []*Port{e.l.A(), e.l.B()} {
		for vc := flit.Channel(0); vc < flit.NumChannels; vc++ {
			out = append(out, p.Credits(vc), p.RxBufUsed(vc))
		}
	}
	return out
}

// TestCrossLinkMatchesLocal sends one packet sequence over a link cut
// between two shards and over the same link on one engine, clean and
// with retries at a nonzero BER: every packet must land at the same
// time on both, and both must end with the same credits.
func TestCrossLinkMatchesLocal(t *testing.T) {
	retry := DefaultConfig()
	retry.RetryEnabled = true
	retry.Phys.BER = 0.05
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"clean", DefaultConfig()}, {"retry", retry}} {
		local, cross := localEcho(t, tc.cfg), crossEcho(t, tc.cfg)
		local.drive()
		cross.drive()
		if len(local.a.times) != 44 || len(local.b.times) != 48 {
			t.Fatalf("%s: A and B received %d and %d packets on the local link, want 44 and 48",
				tc.name, len(local.a.times), len(local.b.times))
		}
		if !slices.Equal(cross.a.times, local.a.times) || !slices.Equal(cross.b.times, local.b.times) {
			t.Fatalf("%s: cross link delivered at\nA %v\nB %v\nlocal link at\nA %v\nB %v",
				tc.name, cross.a.times, cross.b.times, local.a.times, local.b.times)
		}
		if got, want := cross.credits(), local.credits(); !slices.Equal(got, want) {
			t.Fatalf("%s: cross link ends with credits and buffer use %v, local link %v", tc.name, got, want)
		}
		if tc.cfg.RetryEnabled && cross.l.B().CRCErrors.Value() == 0 {
			t.Fatalf("%s: no flit was corrupted, so no nak crossed the cut", tc.name)
		}
	}
}

// TestCrossRoundTripZeroAlloc pins the cut's recycling: once warm, a
// read round trip across a cross link — a request flit, two response
// flits, their credit returns — allocates no more than the same round
// trip over a local link, which allocates only the two decoded packets
// and the response's data. Each measured call runs 64 round trips and
// one Run, so the coordinator's own cost per Run (its worker start-up
// when the runtime has more than one P) is spread over them; round
// trips are compared in whole allocations, as testing.AllocsPerRun
// counts them.
func TestCrossRoundTripZeroAlloc(t *testing.T) {
	const batch = 64
	perTrip := func(e *echoLink) float64 {
		req := &flit.Packet{Chan: flit.ChMem, Op: flit.OpMemRd, Src: 1, Dst: 2, ReqLen: 64}
		trips := func() {
			for i := 0; i < batch; i++ {
				e.l.A().Send(req)
			}
			e.run()
		}
		// Warm until the engines' wheel buckets, the free lists and the
		// mailboxes' spare lists have met their peak load.
		for i := 0; i < 256; i++ {
			trips()
		}
		e.a.times, e.b.times = e.a.times[:0], e.b.times[:0]
		n := testing.AllocsPerRun(20, trips)
		if len(e.a.times) != 21*batch {
			t.Fatalf("%d responses arrived, want %d", len(e.a.times), 21*batch)
		}
		return float64(int(n) / batch)
	}
	local, cross := perTrip(localEcho(t, DefaultConfig())), perTrip(crossEcho(t, DefaultConfig()))
	t.Logf("allocations per read round trip: local %.0f, cross %.0f", local, cross)
	if cross > local {
		t.Fatalf("a read round trip across the cut allocates %.0f, over a local link %.0f; want no more", cross, local)
	}
}
